package main

import (
	"strings"
	"testing"
	"time"
)

// A /proc/<pid>/stat line captured from a running harvestd.
const capturedStat = "21282 (harvestd) S 21281 21281 21277 0 -1 4194304 12825 0 0 0 62 5 0 0 20 0 7 0 " +
	"434858 1718718464 8687 18446744073709551615 4194304 7849536 140733778156016 0 0 0 0 0 2143420159 " +
	"0 0 0 17 0 0 0 0 0 0 11640832 11966784 164765696 140733778158777 140733778158860 140733778158860 " +
	"140733778161630 0"

func TestParseStatCPU(t *testing.T) {
	got, err := parseStatCPU([]byte(capturedStat))
	if err != nil {
		t.Fatal(err)
	}
	// (62 + 5) ticks at 100 Hz.
	if want := 670 * time.Millisecond; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	// A comm holding the separators the parser must skip.
	odd := strings.Replace(capturedStat, "(harvestd)", "(harvest d) x)", 1)
	if got, err := parseStatCPU([]byte(odd)); err != nil || got != 670*time.Millisecond {
		t.Fatalf("odd comm: cpu = %v, %v", got, err)
	}
	if _, err := parseStatCPU([]byte("48213 (harvestd S 1 2")); err == nil {
		t.Fatal("truncated line must not parse")
	}
}

func TestParseStatusKB(t *testing.T) {
	// Lines captured from the same harvestd's /proc/<pid>/status.
	status := []byte("Name:\tharvestd\nVmPeak:\t 1743972 kB\nVmHWM:\t   36392 kB\nVmRSS:\t   34828 kB\n")
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 36392 {
		t.Fatalf("VmHWM = %d, %v", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("missing key must error")
	}
}

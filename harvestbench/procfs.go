package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 on every architecture the toolchain targets here.
const clockTicks = 100

// parseStatCPU returns utime+stime from one /proc/<pid>/stat line. The comm
// field is parenthesized and may itself contain spaces or parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(line []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no comm field")
	}
	// After "comm) " the fields start at state (field 3); utime and stime
	// are fields 14 and 15.
	fields := strings.Fields(string(line[end+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat: %d fields after comm, want ≥13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseStatusKB returns the value of a "Key:   123 kB" line of
// /proc/<pid>/status, in kilobytes.
func parseStatusKB(status []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		num, unit, _ := strings.Cut(strings.TrimSpace(v), " ")
		if unit != "kB" {
			return 0, fmt.Errorf("status: %s in %q, want kB", key, unit)
		}
		return strconv.ParseInt(num, 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// procCPU reads a live process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procHWM reads a live process's peak resident set (VmHWM) in kilobytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM")
}

// cpuSteal reads the steal and total ticks of one line of /proc/stat
// ("cpu" for the whole machine, "cpu0" for one vCPU): how much CPU a
// virtualized host took away from it.
func cpuSteal(name string) (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 1
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 9 || fields[0] != name {
			continue
		}
		for i, f := range fields[1:9] { // user … steal; guest time is already in user
			v, _ := strconv.ParseUint(f, 10, 64)
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	return 0, 1
}

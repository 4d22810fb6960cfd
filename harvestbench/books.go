package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"harvest/internal/blockledger"
)

// ledgerBooks is a daemon's lease-ledger section of /metrics.
type ledgerBooks struct {
	ActiveLeases      int64  `json:"active_leases"`
	OutstandingMillis int64  `json:"outstanding_millis"`
	ReservedMillis    int64  `json:"reserved_millis"`
	ReleasedMillis    int64  `json:"released_millis"`
	ExpiredMillis     int64  `json:"expired_millis"`
	ForfeitedMillis   int64  `json:"forfeited_millis"`
	Reserves          uint64 `json:"reserves"`
	Releases          uint64 `json:"releases"`
	Renews            uint64 `json:"renews"`
	Expiries          uint64 `json:"expiries"`
	Conflicts         uint64 `json:"conflicts"`
}

// dcBooks is one datacenter's section of a daemon's /metrics.
type dcBooks struct {
	Generation            uint64            `json:"generation"`
	Refreshes             uint64            `json:"refreshes"`
	IngestedSamples       uint64            `json:"ingested_samples"`
	Ledger                ledgerBooks       `json:"ledger"`
	Blocks                blockledger.Stats `json:"blocks"`
	PlacementRelaxedTotal uint64            `json:"placement_relaxed_total"`
	RepairFailures        uint64            `json:"repair_failures"`
}

type daemonMetrics struct {
	Replication struct {
		DeltasApplied uint64 `json:"deltas_applied"`
		BeatsApplied  uint64 `json:"beats_applied"`
	} `json:"replication"`
	Datacenters map[string]dcBooks `json:"datacenters"`
}

func readBooks(httpAddr string) (dcBooks, daemonMetrics, error) {
	var m daemonMetrics
	if err := getJSON("http://"+httpAddr+"/metrics", &m); err != nil {
		return dcBooks{}, m, err
	}
	dc, ok := m.Datacenters[fleetDC]
	if !ok {
		return dcBooks{}, m, fmt.Errorf("%s: no %s books", httpAddr, fleetDC)
	}
	return dc, m, nil
}

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// checkLedger is lease conservation, exact: every reserved millicore is
// released, expired, forfeited or still outstanding.
func checkLedger(who string, l ledgerBooks) error {
	if l.ReservedMillis != l.ReleasedMillis+l.ExpiredMillis+l.ForfeitedMillis+l.OutstandingMillis {
		return fmt.Errorf("%s: ledger reserved %d != released %d + expired %d + forfeited %d + outstanding %d",
			who, l.ReservedMillis, l.ReleasedMillis, l.ExpiredMillis, l.ForfeitedMillis, l.OutstandingMillis)
	}
	return nil
}

// checkBlocks is block conservation, exact.
func checkBlocks(who string, b blockledger.Stats) error {
	if b.Placed+b.Pending != b.ReplicaSlots {
		return fmt.Errorf("%s: blocks placed %d + pending %d != replica slots %d", who, b.Placed, b.Pending, b.ReplicaSlots)
	}
	if b.Lost != b.Replaced+b.Pending {
		return fmt.Errorf("%s: blocks lost %d != replaced %d + pending %d", who, b.Lost, b.Replaced, b.Pending)
	}
	return nil
}

// settleWait bounds how long the end-of-run checks wait for the repairer to
// quiesce and for the follower to apply the primary's final books.
const settleWait = 20 * time.Second

// finish drains what the generator holds, lets the fleet settle, and checks
// its books against each other and against what the generator observed.
// It returns the primary's final books.
func finish(w *workload, f *fleet, c *client) (dcBooks, []error) {
	var errs []error
	if w.preloadLeases {
		if err := c.drainLeases(); err != nil {
			errs = append(errs, fmt.Errorf("drain: %w", err))
		}
	}
	deadline := time.Now().Add(settleWait)
	var p dcBooks
	for {
		var err error
		if p, _, err = readBooks(f.primaryHTTP); err != nil {
			return p, append(errs, err)
		}
		if p.Blocks.Pending == 0 && p.Blocks.RepairQueue == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, err := range []error{checkLedger("primary", p.Ledger), checkBlocks("primary", p.Blocks)} {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if p.Blocks.Pending != 0 {
		errs = append(errs, fmt.Errorf("primary: %d replica slots still below R after %v", p.Blocks.Pending, settleWait))
	}
	b := c.b
	if w.preloadLeases {
		// Every acknowledged lease was released exactly once: the drain left
		// nothing outstanding, no release of a granted lease came back
		// unknown, and the fleet counted one release per grant.
		if n := b.releaseUnknown.Load(); n != 0 {
			errs = append(errs, fmt.Errorf("%d releases of acknowledged leases were unknown to the fleet or unanswered", n))
		}
		if p.Ledger.OutstandingMillis != 0 || p.Ledger.ActiveLeases != 0 {
			errs = append(errs, fmt.Errorf("primary: %d leases (%d millis) outstanding after the drain", p.Ledger.ActiveLeases, p.Ledger.OutstandingMillis))
		}
		if acked, rel := b.reservesAcked.Load(), b.releasesAcked.Load(); acked != rel || p.Ledger.Reserves != acked || p.Ledger.Releases != rel {
			errs = append(errs, fmt.Errorf("leases: %d acknowledged, %d released by the generator; fleet counts %d reserves, %d releases",
				acked, rel, p.Ledger.Reserves, p.Ledger.Releases))
		}
	}
	if w.preloadBlocks > 0 && uint64(p.Blocks.Creates) != b.creates.Load() {
		errs = append(errs, fmt.Errorf("blocks: generator created %d, fleet counts %d", b.creates.Load(), p.Blocks.Creates))
	}
	if w.ingestRate > 0 {
		if b.ingestRejected.Load() != 0 {
			errs = append(errs, fmt.Errorf("telemetry: %d samples rejected", b.ingestRejected.Load()))
		}
		if p.Refreshes == 0 {
			errs = append(errs, fmt.Errorf("primary: no refresh landed during the run"))
		}
	}
	// The follower holds the same books once the next beat lands.
	for {
		fb, _, err := readBooks(f.followerHTTP)
		if err != nil {
			errs = append(errs, err)
			break
		}
		if fb.Ledger == p.Ledger && fb.Blocks.Lost == p.Blocks.Lost && fb.Blocks.Placed == p.Blocks.Placed &&
			fb.Blocks.ReplicaSlots == p.Blocks.ReplicaSlots && fb.Blocks.Pending == p.Blocks.Pending {
			for _, err := range []error{checkLedger("follower", fb.Ledger), checkBlocks("follower", fb.Blocks)} {
				if err != nil {
					errs = append(errs, err)
				}
			}
			break
		}
		if time.Now().After(deadline.Add(5 * time.Second)) {
			errs = append(errs, fmt.Errorf("follower books never matched the primary's: %+v vs %+v", fb.Ledger, p.Ledger))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return p, errs
}

package main

import (
	"fmt"
	"time"

	"harvest/internal/timeseries"
	"harvest/internal/wire"
)

// drive sends ops from next over one binary connection with up to depth in
// flight, until next reports no more, and returns once every reply is in.
// onReply sees each reply after it is booked. Set-up and drain use it; any
// request that does not succeed is an error.
func (c *client) drive(next func() (op, bool), depth int, onReply func(opKind, reply)) error {
	bc, err := c.dialBinary()
	if err != nil {
		return err
	}
	defer bc.close()
	bc.nc.SetDeadline(time.Now().Add(60 * time.Second))
	type sent struct {
		kind  opKind
		lease uint64
	}
	reqs := map[uint64]sent{}
	var id uint64
	var scratch []byte
	more := true
	for more || len(reqs) > 0 {
		bc.buf = bc.buf[:0]
		for more && len(reqs) < depth {
			o, ok := next()
			if !ok {
				more = false
				break
			}
			id++
			var lease uint64
			if bc.buf, lease, ok = c.appendRequest(bc.buf, id, o); !ok {
				return fmt.Errorf("no lease to %s", o.kind)
			}
			reqs[id] = sent{o.kind, lease}
		}
		if len(bc.buf) > 0 {
			if _, err := bc.nc.Write(bc.buf); err != nil {
				return err
			}
		}
		if len(reqs) == 0 {
			break
		}
		for {
			rid, r, err := bc.readReply(&scratch)
			if err != nil {
				return err
			}
			s, ok := reqs[rid]
			if !ok {
				return fmt.Errorf("reply to unknown frame id %d", rid)
			}
			delete(reqs, rid)
			if !c.settle(s.kind, s.lease, r) {
				return fmt.Errorf("%s failed with status %d", s.kind, r.status)
			}
			if onReply != nil {
				onReply(s.kind, r)
			}
			if bc.br.Buffered() < wire.HeaderSize {
				break
			}
		}
	}
	return nil
}

// preloadDepth is the pipeline depth of set-up and drain traffic.
const preloadDepth = 64

// preload brings a fresh fleet to the workload's starting state.
func (c *client) preload(w *workload, g *gen) error {
	switch {
	case w.preloadLeases:
		// Fill the DC with small leases until selects stop being satisfiable,
		// then release the older half: what stays holds about half the
		// harvestable capacity.
		full := false
		err := c.drive(func() (op, bool) {
			if full {
				return op{}, false
			}
			return g.make(opSelect), true
		}, preloadDepth, func(k opKind, r reply) {
			if r.lease == 0 {
				full = true
			}
		})
		if err != nil {
			return fmt.Errorf("lease fill: %w", err)
		}
		half := c.pool.size() / 2
		err = c.drive(func() (op, bool) {
			half--
			return op{kind: opRelease}, half >= 0
		}, preloadDepth, nil)
		if err != nil {
			return fmt.Errorf("lease fill: %w", err)
		}
	case w.preloadBlocks > 0:
		n := w.preloadBlocks
		err := c.drive(func() (op, bool) {
			n--
			return op{kind: opCreate}, n >= 0
		}, preloadDepth, nil)
		if err != nil {
			return fmt.Errorf("block preload: %w", err)
		}
	}
	if w.ingestRate > 0 {
		var classes struct {
			AsOfSeconds float64 `json:"as_of_seconds"`
		}
		if err := getJSON(c.httpBase+"/v1/"+fleetDC+"/classes", &classes); err != nil {
			return err
		}
		c.ingest.next = time.Duration(classes.AsOfSeconds*float64(time.Second)) + timeseries.SlotDuration
	}
	return nil
}

// drainLeases releases every lease the generator still holds.
func (c *client) drainLeases() error {
	return c.drive(func() (op, bool) {
		return op{kind: opRelease}, c.pool.size() > 0
	}, preloadDepth, nil)
}

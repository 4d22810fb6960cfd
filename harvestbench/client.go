package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/wire"
)

// dataConns is the generator's connection budget: at most two data
// connections, one per vCPU of the reference box.
const dataConns = 2

// replyGrace is how long a phase waits for stragglers before counting the
// requests still unanswered as timed out.
const replyGrace = 3 * time.Second

// leasePool holds the leases the generator was granted, oldest first.
// Releases take the oldest lease and renews pick from the newer half, so a
// renew never races the release of the same lease across connections.
type leasePool struct {
	mu  sync.Mutex
	ids []uint64
}

func (p *leasePool) add(id uint64) {
	p.mu.Lock()
	p.ids = append(p.ids, id)
	p.mu.Unlock()
}

func (p *leasePool) takeOldest() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return 0, false
	}
	id := p.ids[0]
	p.ids = p.ids[1:]
	return id, true
}

// pickNewer returns a lease from the newer half, chosen by x in [0,1).
func (p *leasePool) pickNewer(x float64) (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.ids)
	if n == 0 {
		return 0, false
	}
	half := n / 2
	return p.ids[half+int(x*float64(n-half))], true
}

func (p *leasePool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ids)
}

// books is what the generator itself observed, for the end-of-run checks and
// the repair-wait estimate.
type books struct {
	attempted, failed, refused, timedOut atomic.Uint64
	reservesAcked, releasesAcked         atomic.Uint64
	releaseUnknown                       atomic.Uint64 // a release of an acknowledged lease that the fleet did not know
	creates, places                      atomic.Uint64
	reimages, lostReplicas, pendingSum   atomic.Uint64
	ingestSamples, ingestRejected        atomic.Uint64
	skipped                              atomic.Uint64 // lease ops with no lease to act on
	succeeded                            atomic.Uint64 // requests settled with status 200
}

// client is the generator's view of the fleet: the router's two front ends,
// the shared lease pool and the telemetry replay clock.
type client struct {
	binAddr  string // binary front end
	httpBase string // JSON front end, http://host:port
	pool     *leasePool
	pop      *population
	b        *books
	http     *http.Client

	ingest *ingestClock
}

// ingestClock hands out telemetry slots in order: the rings reject a sample
// older than the tenant's newest.
type ingestClock struct {
	mu   sync.Mutex
	next time.Duration // telemetry offset of the next slot
}

func newClient(binAddr, httpAddr string, pop *population) *client {
	return &client{
		binAddr:  binAddr,
		httpBase: "http://" + httpAddr,
		pool:     &leasePool{},
		pop:      pop,
		b:        &books{},
		ingest:   &ingestClock{},
		http: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     dataConns,
				MaxIdleConnsPerHost: dataConns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is a decoded response, whichever dialect carried it.
type reply struct {
	status  int
	lease   uint64 // reserving select: the granted lease (0 if unsatisfiable)
	lost    uint32 // reimage
	pending uint32 // reimage: replica slots awaiting repair DC-wide
}

// appendRequest encodes o as a binary request frame. Lease ops take their
// lease from the pool; ok is false when there is none to act on.
func (c *client) appendRequest(dst []byte, id uint64, o op) (out []byte, lease uint64, ok bool) {
	switch o.kind {
	case opRenew:
		lease, ok = c.pool.pickNewer(o.pick)
	case opRelease:
		lease, ok = c.pool.takeOldest()
	default:
		ok = true
	}
	if !ok {
		return dst, 0, false
	}
	return encodeOp(dst, id, o, lease), lease, true
}

// encodeOp encodes o as a binary request frame naming lease where it needs
// one.
func encodeOp(dst []byte, id uint64, o op, lease uint64) []byte {
	switch o.kind {
	case opSelect, opDrySelect:
		var flags uint8
		if o.kind == opDrySelect {
			flags = wire.SelectFlagDryRun
		}
		return wire.AppendSelectReq(dst, id, fleetDC, wire.SelectReq{Job: o.job, Flags: flags, MaxCores: o.cores})
	case opRenew:
		return wire.AppendRenewReq(dst, id, fleetDC, wire.RenewReq{Lease: lease})
	case opRelease:
		return wire.AppendReleaseReq(dst, id, fleetDC, lease)
	case opPlace:
		return wire.AppendPlaceReq(dst, id, fleetDC, wire.PlaceReq{Replication: 3, Writer: o.server})
	case opClasses:
		return wire.AppendClassesReq(dst, id, fleetDC)
	case opServer:
		return wire.AppendServerClassReq(dst, id, fleetDC, o.server)
	case opCreate:
		return wire.AppendPlaceBlockReq(dst, id, fleetDC, wire.PlaceBlockReq{Replication: 3, Writer: -1})
	case opReimage:
		return wire.AppendReimageReq(dst, id, fleetDC, o.server)
	}
	panic("no binary encoding for " + o.kind.String())
}

// decodeReply parses one binary response frame.
func decodeReply(h wire.Header, payload []byte) (reply, error) {
	r := reply{status: 200}
	var err error
	switch h.Op {
	case wire.OpError:
		var m wire.ErrorResp
		err = m.Decode(payload)
		r.status = int(m.Code)
	case wire.OpSelectResp:
		var m wire.SelectResp
		err = m.Decode(payload)
		r.lease = m.Lease
	case wire.OpReimageResp:
		var m wire.ReimageResp
		err = m.Decode(payload)
		r.lost, r.pending = m.Lost, m.Pending
	case wire.OpReleaseResp, wire.OpRenewResp, wire.OpPlaceResp, wire.OpClassesResp,
		wire.OpServerClassResp, wire.OpPlaceBlockResp:
	default:
		err = fmt.Errorf("unexpected response opcode %v", h.Op)
	}
	return r, err
}

// settle books one completed request. kind is what was sent; lease is the
// lease a renew/release named.
func (c *client) settle(kind opKind, lease uint64, r reply) bool {
	switch {
	case r.status == 200:
	case r.status == 503 || r.status == 429:
		c.b.refused.Add(1)
		if kind == opRelease {
			c.pool.add(lease) // not released: still ours to release
		}
		return false
	default:
		c.b.failed.Add(1)
		if kind == opRelease && r.status == 404 {
			c.b.releaseUnknown.Add(1)
		}
		return false
	}
	c.b.succeeded.Add(1)
	switch kind {
	case opSelect:
		if r.lease != 0 {
			c.b.reservesAcked.Add(1)
			c.pool.add(r.lease)
		}
	case opRelease:
		c.b.releasesAcked.Add(1)
	case opCreate:
		c.b.creates.Add(1)
	case opPlace:
		c.b.places.Add(1)
	case opReimage:
		c.b.reimages.Add(1)
		c.b.lostReplicas.Add(uint64(r.lost))
		c.b.pendingSum.Add(uint64(r.pending))
	}
	return true
}

// phaseResult is what one connection (or the merged set) observed in a
// phase.
type phaseResult struct {
	latUS     []float64 // open loop: completion − due, per successful request
	fleetUS   []float64 // open loop: latUS less that request's own genLateUS
	genLateUS []float64 // open loop: generator-caused send delay, per request sent
	completed uint64    // successful requests
	windowOps []uint64  // closed loop: successful requests per capacity window
	elapsed   time.Duration
}

func (p *phaseResult) merge(o *phaseResult) {
	p.latUS = append(p.latUS, o.latUS...)
	p.fleetUS = append(p.fleetUS, o.fleetUS...)
	p.genLateUS = append(p.genLateUS, o.genLateUS...)
	p.completed += o.completed
	for i, n := range o.windowOps {
		if i >= len(p.windowOps) {
			p.windowOps = append(p.windowOps, 0)
		}
		p.windowOps[i] += n
	}
	p.elapsed = max(p.elapsed, o.elapsed)
}

// countWindow books one closed-loop completion into its capacity window.
func (p *phaseResult) countWindow(start time.Time, window time.Duration) {
	if i := int(time.Since(start) / window); i < len(p.windowOps) {
		p.windowOps[i]++
	}
}

// inflight is one sent-but-unanswered binary request.
type inflight struct {
	kind   opKind
	lease  uint64
	due    time.Time
	lateUS float64 // the generator's own delay in sending it
	live   bool
}

// binConn is one pipelined binary connection.
type binConn struct {
	c   *client
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
}

func (c *client) dialBinary() (*binConn, error) {
	nc, err := net.Dial("tcp", c.binAddr)
	if err != nil {
		return nil, err
	}
	return &binConn{c: c, nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (bc *binConn) close() { bc.nc.Close() }

// readReply reads one response frame.
func (bc *binConn) readReply(scratch *[]byte) (uint64, reply, error) {
	h, payload, err := wire.ReadFrame(bc.br, scratch)
	if err != nil {
		return 0, reply{}, err
	}
	r, err := decodeReply(h, payload)
	return h.ID, r, err
}

// runOpen sends sched (this connection's share of the phase) on time,
// regardless of replies, and times each request from when it was due.
func (bc *binConn) runOpen(sched []scheduled, start time.Time) *phaseResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	preciseTimers()
	res := &phaseResult{latUS: make([]float64, 0, len(sched)), genLateUS: make([]float64, 0, len(sched))}
	reqs := make([]inflight, len(sched)+1) // indexed by frame id
	var mu sync.Mutex                      // guards reqs between writer and reader
	var outstanding atomic.Int64
	writerDone := make(chan struct{})

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var scratch []byte
		for {
			id, r, err := bc.readReply(&scratch)
			now := time.Now()
			if err != nil {
				return // closed at the end of the phase
			}
			mu.Lock()
			if id == 0 || id >= uint64(len(reqs)) || !reqs[id].live {
				mu.Unlock()
				bc.c.b.failed.Add(1)
				continue
			}
			rq := reqs[id]
			reqs[id].live = false
			mu.Unlock()
			outstanding.Add(-1)
			if bc.c.settle(rq.kind, rq.lease, r) {
				lat := float64(now.Sub(rq.due).Nanoseconds()) / 1e3
				res.latUS = append(res.latUS, lat)
				res.fleetUS = append(res.fleetUS, lat-rq.lateUS)
				res.completed++
			}
		}
	}()

	var lastWriteEnd time.Time
	for i := 0; i < len(sched); {
		sleepUntil(start.Add(time.Duration(sched[i].due * float64(time.Second))))
		now := time.Now()
		bc.buf = bc.buf[:0]
		mu.Lock()
		for ; i < len(sched); i++ {
			di := start.Add(time.Duration(sched[i].due * float64(time.Second)))
			if di.After(now) {
				break
			}
			bc.c.b.attempted.Add(1)
			var lease uint64
			var ok bool
			id := uint64(i + 1)
			if bc.buf, lease, ok = bc.c.appendRequest(bc.buf, id, sched[i].op); !ok {
				bc.c.b.skipped.Add(1)
				continue
			}
			// The generator is late only by what it owes itself: time past
			// the due instant that it was not blocked writing to the fleet.
			ready := di
			if lastWriteEnd.After(ready) {
				ready = lastWriteEnd
			}
			late := float64(now.Sub(ready).Nanoseconds()) / 1e3
			res.genLateUS = append(res.genLateUS, late)
			reqs[id] = inflight{kind: sched[i].op.kind, lease: lease, due: di, lateUS: late, live: true}
			outstanding.Add(1)
		}
		mu.Unlock()
		if _, err := bc.nc.Write(bc.buf); err != nil {
			break
		}
		lastWriteEnd = time.Now()
	}
	close(writerDone)
	res.elapsed = time.Since(start)
	deadline := time.Now().Add(replyGrace)
	for outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	bc.close()
	<-readerDone
	mu.Lock()
	for _, rq := range reqs {
		if rq.live {
			bc.c.b.timedOut.Add(1)
			if rq.kind == opRelease {
				// Unknown outcome: the lease may or may not be released, so
				// the exactly-once check cannot account for it.
				bc.c.b.releaseUnknown.Add(1)
			}
		}
	}
	mu.Unlock()
	return res
}

// runClosed keeps depth requests in flight from the mix until the phase
// ends and counts successful completions inside it.
func (bc *binConn) runClosed(g *gen, mix []weighted, depth int, start time.Time, window time.Duration, windows int) *phaseResult {
	res := &phaseResult{windowOps: make([]uint64, windows)}
	end := start.Add(window * time.Duration(windows))
	reqs := map[uint64]inflight{}
	var nextID uint64
	var scratch []byte
	for {
		now := time.Now()
		if now.Before(end) {
			bc.buf = bc.buf[:0]
			for len(reqs) < depth {
				o := g.draw(mix)
				nextID++
				bc.c.b.attempted.Add(1)
				var lease uint64
				var ok bool
				if bc.buf, lease, ok = bc.c.appendRequest(bc.buf, nextID, o); !ok {
					bc.c.b.skipped.Add(1)
					continue
				}
				reqs[nextID] = inflight{kind: o.kind, lease: lease, due: now, live: true}
			}
			if len(bc.buf) > 0 {
				if _, err := bc.nc.Write(bc.buf); err != nil {
					break
				}
			}
		} else if len(reqs) == 0 {
			break
		} else {
			bc.nc.SetReadDeadline(end.Add(replyGrace))
		}
		// Read everything already buffered before topping the pipeline up.
		for {
			id, r, err := bc.readReply(&scratch)
			if err != nil {
				for _, rq := range reqs {
					bc.c.b.timedOut.Add(1)
					if rq.kind == opRelease {
						bc.c.b.releaseUnknown.Add(1)
					}
				}
				res.elapsed = time.Since(start)
				bc.close()
				return res
			}
			rq, ok := reqs[id]
			if !ok {
				bc.c.b.failed.Add(1)
			} else {
				delete(reqs, id)
				if bc.c.settle(rq.kind, rq.lease, r) && time.Now().Before(end) {
					res.completed++
					res.countWindow(start, window)
				}
			}
			if bc.br.Buffered() < wire.HeaderSize {
				break
			}
		}
	}
	res.elapsed = time.Since(start)
	bc.close()
	return res
}

// ---- JSON dialect ----

// newRequest builds o as a JSON API request against the router.
func (c *client) newRequest(o op) (*http.Request, error) {
	base := c.httpBase + "/v1/" + fleetDC
	switch o.kind {
	case opDrySelect:
		body := fmt.Sprintf(`{"job_type":%q,"max_concurrent_cores":%g,"dry_run":true}`, jobNames[o.job], o.cores)
		return http.NewRequest("POST", base+"/select", bytes.NewBufferString(body))
	case opPlace:
		return http.NewRequest("POST", base+"/place", bytes.NewBufferString(
			`{"replication":3,"writer":`+strconv.FormatInt(o.server, 10)+`}`))
	case opClasses:
		return http.NewRequest("GET", base+"/classes", nil)
	case opServer:
		return http.NewRequest("GET", base+"/servers/"+strconv.FormatInt(o.server, 10)+"/class", nil)
	}
	return nil, errors.New("no JSON encoding for " + o.kind.String())
}

var jobNames = [3]string{"short", "medium", "long"}

// ingestBody renders the next telemetry slot for every tenant: the
// continuation of the trace the daemons' rings were bootstrapped from.
func ingestBody(pop *tenant.Population, at time.Duration) []byte {
	var b bytes.Buffer
	b.WriteString(`{"samples":[`)
	for i, t := range pop.Tenants {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"tenant":%d,"at_seconds":%d,"utilization":%.4f}`, t.ID, int64(at.Seconds()), t.UtilizationAt(at))
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// doJSON sends one JSON op and books its outcome.
func (c *client) doJSON(o op) bool {
	var status int
	if o.kind == opIngest {
		c.ingest.mu.Lock()
		at := c.ingest.next
		c.ingest.next += timeseries.SlotDuration
		status = c.post("/v1/"+fleetDC+"/telemetry", ingestBody(c.pop.pop, at))
		c.ingest.mu.Unlock()
	} else {
		req, err := c.newRequest(o)
		if err != nil {
			panic(err)
		}
		status = c.send(req, nil)
	}
	return c.settle(o.kind, 0, reply{status: status})
}

func (c *client) post(path string, body []byte) int {
	req, _ := http.NewRequest("POST", c.httpBase+path, bytes.NewReader(body))
	var tr struct {
		Accepted uint64 `json:"accepted"`
		Rejected uint64 `json:"rejected"`
	}
	st := c.send(req, &tr)
	c.b.ingestSamples.Add(tr.Accepted)
	c.b.ingestRejected.Add(tr.Rejected)
	return st
}

// send performs req; a transport error reads as status 0 (failed).
func (c *client) send(req *http.Request, v any) int {
	if req.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == 200 {
		if decodeJSON(resp.Body, v) != nil {
			return 0
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// runOpenJSON dispatches sched on time to dataConns workers, one request in
// flight each (HTTP/1.1), timing each from when it was due.
func (c *client) runOpenJSON(sched []scheduled, start time.Time) *phaseResult {
	type job struct {
		o      op
		due    time.Time
		lateUS float64
	}
	jobs := make(chan job, len(sched)) // sized to the schedule: dispatch never blocks
	results := make([]*phaseResult, dataConns)
	var wg sync.WaitGroup
	for w := range results {
		results[w] = &phaseResult{}
		wg.Add(1)
		go func(res *phaseResult) {
			defer wg.Done()
			for j := range jobs {
				if c.doJSON(j.o) {
					lat := float64(time.Since(j.due).Nanoseconds()) / 1e3
					res.latUS = append(res.latUS, lat)
					res.fleetUS = append(res.fleetUS, lat-j.lateUS)
					res.completed++
				}
			}
		}(results[w])
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	preciseTimers()
	gen := &phaseResult{genLateUS: make([]float64, 0, len(sched))}
	for _, s := range sched {
		due := start.Add(time.Duration(s.due * float64(time.Second)))
		sleepUntil(due)
		c.b.attempted.Add(1)
		late := float64(time.Since(due).Nanoseconds()) / 1e3
		gen.genLateUS = append(gen.genLateUS, late)
		jobs <- job{o: s.op, due: due, lateUS: late}
	}
	close(jobs)
	gen.elapsed = time.Since(start)
	wg.Wait()
	for _, r := range results {
		gen.merge(r)
	}
	return gen
}

// runClosedJSON keeps dataConns requests in flight for windows capacity
// windows.
func (c *client) runClosedJSON(g *gen, mix []weighted, start time.Time, window time.Duration, windows int) *phaseResult {
	results := make([]*phaseResult, dataConns)
	var wg sync.WaitGroup
	end := start.Add(window * time.Duration(windows))
	var mu sync.Mutex
	next := func() op {
		mu.Lock()
		defer mu.Unlock()
		return g.draw(mix)
	}
	for w := range results {
		results[w] = &phaseResult{windowOps: make([]uint64, windows)}
		wg.Add(1)
		go func(res *phaseResult) {
			defer wg.Done()
			for time.Now().Before(end) {
				c.b.attempted.Add(1)
				if c.doJSON(next()) && time.Now().Before(end) {
					res.completed++
					res.countWindow(start, window)
				}
			}
		}(results[w])
	}
	wg.Wait()
	total := &phaseResult{elapsed: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

func sortSchedule(s []scheduled) {
	slices.SortStableFunc(s, func(a, b scheduled) int {
		switch {
		case a.due < b.due:
			return -1
		case a.due > b.due:
			return 1
		}
		return 0
	})
}

package main

// The traced run. It replays the workload's op sequence (same seed as the
// untraced run) down a ladder of public entry points, one rung at a time,
// and times every call from here — the program itself is not instrumented:
//
//  1. through the router over TCP
//  2. direct to the primary over TCP
//  3. service.BinaryServer.Serve over net.Pipe, or service.API.ServeHTTP on
//     a prepared request
//  4. the service.Service method
//  5. the ledger / blockledger / core call alone, on standalone state of the
//     same shape
//  6. the wire codec alone
//
// A layer's self time is the difference between adjacent rungs. Every timed
// call is a span (name, start, end, parent, op id) kept in memory and written
// to spans.jsonl at the end; allocations per call are counted around each
// call with the collector off.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/ledger"
	"harvest/internal/obs"
	"harvest/internal/service"
	"harvest/internal/telemetry"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/wire"
)

const (
	// ladderOps is how many ops of the main mix each rung replays; every
	// telemetry slot and reimage of the open-loop schedule is replayed too.
	ladderOps = 3000
	// beatEvery is how often (in replayed ops) rung 5 exports, ships and
	// applies the replication state, as the primary's 250 ms beat does.
	beatEvery = 100
	// refreshEvery is how many telemetry slots land between two refreshes
	// (query-json: 20 slots/s against a 500 ms refresh period).
	refreshEvery = 10
	// traceOpenShare is the open-loop fleet phase of a traced run, which
	// supplies the fleet's own books and CPU per op.
	traceOpenShare = 0.5
)

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
}

type acc struct {
	n      int
	ns     float64
	allocs float64
}

// tracer times calls, counts their heap allocations and keeps the spans.
type tracer struct {
	t0       time.Time
	overhead time.Duration // the cost of timing an empty call, taken off every span
	spans    []span
	accs     map[string]*acc
	samples  []metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{
		t0:   time.Now(),
		accs: map[string]*acc{},
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/tiny/allocs:objects"},
		},
	}
	// Calibrate: the median of many empty spans.
	const n = 20001
	empty := make([]float64, n)
	for i := range empty {
		t.timed("calibrate", "", i, func() {})
		empty[i] = float64(t.spans[i].End - t.spans[i].Start)
	}
	t.overhead = time.Duration(median(empty))
	t.spans, t.accs = t.spans[:0], map[string]*acc{}
	return t
}

func (t *tracer) allocCount() uint64 {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64() + t.samples[1].Value.Uint64()
}

// gcEvery bounds the heap while the collector is off: a collection runs
// between calls every gcEvery spans, at the same points on every run, so the
// pools it empties refill identically and allocation counts still repeat.
const gcEvery = 500

// timed runs fn as one span.
func (t *tracer) timed(name, parent string, opID int, fn func()) {
	if len(t.spans)%gcEvery == gcEvery-1 {
		runtime.GC()
	}
	a0 := t.allocCount()
	start := time.Now()
	fn()
	end := time.Now().Add(-t.overhead)
	allocs := t.allocCount() - a0
	t.spans = append(t.spans, span{name, parent, opID, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), allocs})
	a := t.accs[name]
	if a == nil {
		a = &acc{}
		t.accs[name] = a
	}
	a.n++
	a.ns += float64(end.Sub(start).Nanoseconds())
	a.allocs += float64(allocs)
}

// mean is the mean duration (ns) and allocations of a span name; zero when
// the workload never made that call.
func (t *tracer) mean(name string) (ns, allocs float64) {
	a := t.accs[name]
	if a == nil || a.n == 0 {
		return 0, 0
	}
	return a.ns / float64(a.n), a.allocs / float64(a.n)
}

// total is the summed duration (ns) and allocations of a span name.
func (t *tracer) total(name string) (ns, allocs float64) {
	a := t.accs[name]
	if a == nil {
		return 0, 0
	}
	return a.ns, a.allocs
}

func (t *tracer) count(name string) int {
	if a := t.accs[name]; a != nil {
		return a.n
	}
	return 0
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladderOpsOf picks the replayed sequence from the open-loop schedule: its
// first ladderOps main-mix ops plus every background op (telemetry slot,
// reimage) of the whole schedule, in schedule order.
func ladderOpsOf(sched []scheduled) []op {
	var out []op
	main := 0
	for _, s := range sched {
		switch s.op.kind {
		case opIngest, opReimage:
			out = append(out, s.op)
		default:
			if main < ladderOps {
				out = append(out, s.op)
				main++
			}
		}
	}
	return out
}

// rungTCP replays ops serially over TCP, through the router (rung 1) or
// direct to the primary (rung 2).
func rungTCP(t *tracer, c *client, ops []op, name, parent string) error {
	if c.binAddr != "" {
		bc, err := c.dialBinary()
		if err != nil {
			return err
		}
		defer bc.close()
		var scratch []byte
		for i, o := range ops {
			c.b.attempted.Add(1)
			buf, lease, ok := c.appendRequest(bc.buf[:0], uint64(i+1), o)
			if !ok {
				return fmt.Errorf("%s: no lease to %s", name, o.kind)
			}
			bc.buf = buf
			var r reply
			var err error
			t.timed(name, parent, i, func() {
				if _, err = bc.nc.Write(bc.buf); err == nil {
					_, r, err = bc.readReply(&scratch)
				}
			})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !c.settle(o.kind, lease, r) {
				return fmt.Errorf("%s: %s failed with status %d", name, o.kind, r.status)
			}
		}
		return nil
	}
	for i, o := range ops {
		c.b.attempted.Add(1)
		var ok bool
		t.timed(name, parent, i, func() { ok = c.doJSON(o) })
		if !ok {
			return fmt.Errorf("%s: %s failed", name, o.kind)
		}
	}
	return nil
}

// pipeListener hands the server ends of in-memory pipes to a BinaryServer.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// allocView adapts a standalone ledger to core.AllocSource at one
// generation, as the service's own usage view does.
type allocView struct {
	led *ledger.Ledger
	gen uint64
}

func (a allocView) AllocatedCoresOf(id core.ClassID) float64 {
	c, _ := a.led.AllocatedCores(a.gen, id)
	return c
}

// inproc is the in-process half of the ladder: a Service built exactly as
// the fleet's primary is (same scale and population seed, not started), its
// two front ends, and standalone layer state for rung 5.
type inproc struct {
	svc  *service.Service
	api  *service.API
	bs   *service.BinaryServer
	ln   *pipeListener
	pipe net.Conn
	br   *bufio.Reader
	c    *client // rung 3 and 4 lease pool and ingest clock
	snap *service.Snapshot
	rng  *rand.Rand

	// rung 5
	sel       *core.Selector
	idx       *core.SelectIndex
	led       *ledger.Ledger // the primary's ledger, standalone
	ledF      *ledger.Ledger // a follower's, applying shipped state
	blk       *blockledger.Ledger
	blkF      *blockledger.Ledger
	scheme    *core.PlacementScheme
	store     *telemetry.Store
	clusterer *core.ClusteringService
	leases5   *leasePool
}

func newInproc(pop *population) (*inproc, error) {
	cfg := service.DefaultConfig()
	cfg.Datacenters = []string{fleetDC}
	cfg.Scale = experiments.Scale{Datacenter: fleetScale, Seed: populationSeed}
	cfg.Seed = populationSeed
	cfg.RefreshPeriod = 0
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	snap, _ := svc.Snapshot(fleetDC)
	ip := &inproc{
		svc: svc, api: service.NewAPI(svc), bs: service.NewBinaryServer(svc), ln: newPipeListener(),
		snap: snap, rng: rand.New(rand.NewSource(populationSeed)),
		c:       &client{httpBase: "http://inproc", pool: &leasePool{}, pop: pop, b: &books{}, ingest: &ingestClock{}},
		led:     ledger.New(snap.Generation, len(snap.Clustering.Classes)),
		ledF:    ledger.New(snap.Generation, len(snap.Clustering.Classes)),
		blk:     blockledger.New(snap.Generation),
		blkF:    blockledger.New(snap.Generation),
		leases5: &leasePool{},
	}
	go ip.bs.Serve(ip.ln)
	if ip.pipe, err = ip.ln.dial(); err != nil {
		return nil, err
	}
	ip.br = bufio.NewReader(ip.pipe)
	if ip.sel, err = core.NewSelector(cfg.Selector, snap.Clustering, nil); err != nil {
		return nil, err
	}
	ip.idx = ip.sel.BuildIndex(snap.Usage)
	if ip.scheme, err = core.BuildPlacementScheme(experiments.PlacementInfos(pop.pop)); err != nil {
		return nil, err
	}
	ids := make([]tenant.ID, len(pop.pop.Tenants))
	for i, t := range pop.pop.Tenants {
		ids[i] = t.ID
	}
	ip.store = telemetry.NewStore(ids, timeseries.SlotDuration, timeseries.SlotsPerMonth)
	for _, t := range pop.pop.Tenants {
		if err := ip.store.Bootstrap(t.ID, t.Utilization, t.Utilization.Duration()); err != nil {
			return nil, err
		}
	}
	ip.clusterer = core.NewClusteringService(cfg.Clustering)
	ip.c.ingest.next = snap.AsOf + timeseries.SlotDuration
	return ip, nil
}

func (ip *inproc) close() {
	ip.pipe.Close()
	ip.ln.Close()
	ip.bs.Close()
	ip.svc.Close()
}

// preload brings the in-process service and the standalone rung-5 state to
// the fleet's starting state.
func (ip *inproc) preload(w *workload, g *gen) error {
	switch {
	case w.preloadLeases:
		var ids, ids5 []uint64
		for {
			o := g.make(opSelect)
			job := core.JobRequest{Type: core.JobType(o.job), MaxConcurrentCores: o.cores}
			grant, _, err := ip.svc.SelectReserve(fleetDC, job, 0)
			if err != nil {
				return err
			}
			if grant.Lease == 0 {
				break
			}
			ids = append(ids, grant.Lease)
			if lease, ok := ip.reserve5(job); ok {
				ids5 = append(ids5, lease)
			}
		}
		for _, id := range ids[:len(ids)/2] {
			if _, err := ip.svc.Release(fleetDC, id); err != nil {
				return err
			}
		}
		for _, id := range ids[len(ids)/2:] {
			ip.c.pool.add(id)
		}
		for _, id := range ids5[:len(ids5)/2] {
			if _, err := ip.led.Release(id); err != nil {
				return err
			}
		}
		for _, id := range ids5[len(ids5)/2:] {
			ip.leases5.add(id)
		}
	case w.preloadBlocks > 0:
		c := core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true}
		for i := 0; i < w.preloadBlocks; i++ {
			bp, err := ip.svc.CreateBlock(fleetDC, c)
			if err != nil {
				return err
			}
			if _, err := ip.blk.Create(ip.snap.Generation, bp.Replicas, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// reserve5 is the reserving select on standalone state: indexed selection,
// then the ledger admission the service performs with its result.
func (ip *inproc) reserve5(job core.JobRequest) (uint64, bool) {
	sel := ip.sel.SelectIndexed(ip.rng, job, ip.idx, allocView{ip.led, ip.snap.Generation})
	if sel.Empty() {
		return 0, false
	}
	reqs := ip.requests5(job, sel)
	lease, err := ip.led.Reserve(ip.snap.Generation, reqs, 2*time.Minute, time.Now())
	return lease.ID, err == nil
}

// requests5 turns a selection into ledger requests the way the service does:
// each class's headroom, capped by the remaining demand, floored to the
// ledger's millicore fixed point.
func (ip *inproc) requests5(job core.JobRequest, sel core.Selection) []ledger.Request {
	reqs := make([]ledger.Request, 0, len(sel.Classes))
	remaining := job.MaxConcurrentCores
	for i, id := range sel.Classes {
		want := math.Min(sel.Headrooms[i], remaining)
		want = math.Floor(want*ledger.MillisPerCore) / ledger.MillisPerCore
		if want <= 0 {
			continue
		}
		cls := ip.snap.Clustering.Class(id)
		reqs = append(reqs, ledger.Request{Class: id, Cores: want, Capacity: ip.sel.Capacity(job.Type, cls, ip.snap.Usage[id])})
		remaining -= want
	}
	return reqs
}

// rung3 replays ops through the service's own front end in-process.
func (ip *inproc) rung3(t *tracer, w *workload, ops []op) error {
	if !w.binary {
		for i, o := range ops {
			req, err := ip.jsonRequest(o)
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			t.timed("rung3.api", "rung2.primary", i, func() { ip.api.ServeHTTP(rec, req) })
			if rec.Code != http.StatusOK {
				return fmt.Errorf("rung3: %s returned %d: %s", o.kind, rec.Code, rec.Body.String())
			}
		}
		return nil
	}
	var buf, scratch []byte
	for i, o := range ops {
		var lease uint64
		var ok bool
		if buf, lease, ok = ip.c.appendRequest(buf[:0], uint64(i+1), o); !ok {
			return fmt.Errorf("rung3: no lease to %s", o.kind)
		}
		var r reply
		var err error
		t.timed("rung3.binary_server", "rung2.primary", i, func() {
			if _, err = ip.pipe.Write(buf); err == nil {
				var h wire.Header
				var payload []byte
				if h, payload, err = wire.ReadFrame(ip.br, &scratch); err == nil {
					r, err = decodeReply(h, payload)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("rung3: %w", err)
		}
		if !ip.c.settle(o.kind, lease, r) {
			return fmt.Errorf("rung3: %s failed with status %d", o.kind, r.status)
		}
		if o.kind == opReimage {
			ip.repairAll()
		}
	}
	return nil
}

// repairAll drains the in-process repair queue untimed, as the fleet's
// background repairer would between requests.
func (ip *inproc) repairAll() {
	for ip.svc.RepairBlocks(fleetDC, 1<<20) > 0 {
	}
}

func (ip *inproc) jsonRequest(o op) (*http.Request, error) {
	if o.kind == opIngest {
		at := ip.c.ingest.next
		ip.c.ingest.next += timeseries.SlotDuration
		// The standalone rings take every slot the service does.
		for _, s := range ingestSamples(ip.c.pop.pop, at) {
			if _, err := ip.store.Ingest(s.Tenant, s.At, s.Value); err != nil {
				return nil, err
			}
		}
		req := httptest.NewRequest("POST", "/v1/"+fleetDC+"/telemetry", bytes.NewReader(ingestBody(ip.c.pop.pop, at)))
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}
	req, err := ip.c.newRequest(o)
	if err != nil {
		return nil, err
	}
	req.RequestURI = req.URL.RequestURI()
	if req.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

var errNoLease = errors.New("no lease to act on")

// rung45 replays ops as direct Service calls (rung 4), each followed by the
// layer calls it is made of on standalone state (rung 5), so both rungs see
// the same point of the sequence. It also times the background work the
// fleet runs between requests: refresh, repair, and every beatEvery ops a
// replication beat.
func (ip *inproc) rung45(t *tracer, ops []op) error {
	const parent = "rung3"
	gen := ip.snap.Generation
	ingests := 0
	var beat []byte
	for i, o := range ops {
		var err error
		switch o.kind {
		case opSelect:
			job := core.JobRequest{Type: core.JobType(o.job), MaxConcurrentCores: o.cores}
			var g service.Grant
			t.timed("rung4.select_reserve", parent, i, func() { g, _, err = ip.svc.SelectReserve(fleetDC, job, 0) })
			if err == nil && g.Lease != 0 {
				ip.c.pool.add(g.Lease)
			}
			var sel core.Selection
			t.timed("core.select_indexed", "rung4.select_reserve", i, func() {
				sel = ip.sel.SelectIndexed(ip.rng, job, ip.idx, allocView{ip.led, gen})
			})
			if err == nil && !sel.Empty() {
				reqs := ip.requests5(job, sel)
				var lease ledger.Lease
				var rerr error
				t.timed("ledger.reserve", "rung4.select_reserve", i, func() {
					lease, rerr = ip.led.Reserve(gen, reqs, 2*time.Minute, time.Now())
				})
				if rerr == nil {
					ip.leases5.add(lease.ID)
				}
			}
		case opRenew:
			id, ok := ip.c.pool.pickNewer(o.pick)
			id5, ok5 := ip.leases5.pickNewer(o.pick)
			if !ok || !ok5 {
				return errNoLease
			}
			t.timed("rung4.renew", parent, i, func() { _, err = ip.svc.Renew(fleetDC, id, 0) })
			if err == nil {
				t.timed("ledger.renew", "rung4.renew", i, func() { _, err = ip.led.Renew(id5, 2*time.Minute, time.Now()) })
			}
		case opRelease:
			id, ok := ip.c.pool.takeOldest()
			id5, ok5 := ip.leases5.takeOldest()
			if !ok || !ok5 {
				return errNoLease
			}
			t.timed("rung4.release", parent, i, func() { _, err = ip.svc.Release(fleetDC, id) })
			if err == nil {
				t.timed("ledger.release", "rung4.release", i, func() { _, err = ip.led.Release(id5) })
			}
		case opDrySelect:
			job := core.JobRequest{Type: core.JobType(o.job), MaxConcurrentCores: o.cores}
			t.timed("rung4.select", parent, i, func() { _, _, err = ip.svc.Select(fleetDC, job) })
			t.timed("core.select_indexed", "rung4.select", i, func() {
				ip.sel.SelectIndexed(ip.rng, job, ip.idx, allocView{ip.led, gen})
			})
		case opPlace:
			c := core.PlacementConstraints{Replication: 3, Writer: tenant.ServerID(o.server), EnforceEnvironment: true}
			t.timed("rung4.place", parent, i, func() { _, _, err = ip.svc.Place(fleetDC, c) })
			if err == nil {
				t.timed("core.place_replicas", "rung4.place", i, func() { _, err = ip.scheme.PlaceReplicas(ip.rng, c) })
			}
		case opClasses:
			t.timed("rung4.classes", parent, i, func() {
				snap, _ := ip.svc.Snapshot(fleetDC)
				ip.svc.UsageFor(snap)
				ip.svc.LedgerOccupancy(fleetDC)
			})
		case opServer:
			t.timed("rung4.server", parent, i, func() {
				snap, _ := ip.svc.Snapshot(fleetDC)
				snap.ClassOfServer(tenant.ServerID(o.server))
				ip.svc.UsageFor(snap)
				ip.svc.LedgerOccupancy(fleetDC)
			})
		case opIngest:
			at := ip.c.ingest.next
			ip.c.ingest.next += timeseries.SlotDuration
			samples := ingestSamples(ip.c.pop.pop, at)
			t.timed("rung4.ingest", parent, i, func() { _, err = ip.svc.Ingest(fleetDC, samples) })
			for _, s := range samples {
				if _, err := ip.store.Ingest(s.Tenant, s.At, s.Value); err != nil {
					return err
				}
			}
			if ingests++; err == nil && ingests%refreshEvery == 0 {
				// The standalone recluster starts from the clustering the
				// service refreshes from, over the same telemetry.
				before, _ := ip.svc.Snapshot(fleetDC)
				runtime.GC()
				t.timed("rung4.refresh", parent, i, func() { err = ip.svc.Refresh(fleetDC) })
				if err == nil {
					runtime.GC()
					t.timed("core.recluster", "rung4.refresh", i, func() {
						_, _, err = ip.clusterer.Recluster(before.Clustering, ip.c.pop.pop, ip.store)
					})
				}
			}
		case opCreate:
			c := core.PlacementConstraints{Replication: 3, Writer: -1, EnforceEnvironment: true}
			var bp service.BlockPlacement
			t.timed("rung4.create_block", parent, i, func() { bp, err = ip.svc.CreateBlock(fleetDC, c) })
			if err == nil {
				t.timed("core.place_replicas", "rung4.create_block", i, func() { _, err = ip.scheme.PlaceReplicas(ip.rng, c) })
			}
			if err == nil {
				// Recording the service's own placement keeps the standalone
				// block ledger the same shape as the service's.
				t.timed("blockledger.create", "rung4.create_block", i, func() { _, err = ip.blk.Create(gen, bp.Replicas, true) })
			}
		case opReimage:
			t.timed("rung4.reimage", parent, i, func() {
				if _, err = ip.svc.ReimageServer(fleetDC, tenant.ServerID(o.server)); err == nil {
					ip.svc.BlockStats(fleetDC)
				}
			})
			t.timed("blockledger.reimage", "rung4.reimage", i, func() { ip.blk.Reimage(tenant.ServerID(o.server)) })
			for {
				landed := 0
				t.timed("rung4.repair", parent, i, func() { landed = ip.svc.RepairBlocks(fleetDC, 64) })
				t.accs["rung4.repair.replicas"] = addCount(t.accs["rung4.repair.replicas"], landed)
				if landed == 0 {
					break
				}
			}
			if err == nil {
				err = ip.repair5(t, i, gen)
			}
		}
		if err != nil {
			return fmt.Errorf("rung4/5: %s: %w", o.kind, err)
		}
		if i%beatEvery == beatEvery-1 {
			beat = ip.beat5(t, i, beat[:0])
		}
	}
	return nil
}

func addCount(a *acc, n int) *acc {
	if a == nil {
		a = &acc{}
	}
	a.n += n
	return a
}

func ingestSamples(pop *tenant.Population, at time.Duration) []service.IngestSample {
	out := make([]service.IngestSample, len(pop.Tenants))
	for i, t := range pop.Tenants {
		out[i] = service.IngestSample{Tenant: t.ID, Server: -1, At: at, Value: t.UtilizationAt(at)}
	}
	return out
}

// repair5 re-places every pending replica slot on standalone state, as the
// service's repairer does.
func (ip *inproc) repair5(t *tracer, i int, gen uint64) error {
	for {
		refs := ip.blk.TakeRepairs(64)
		if len(refs) == 0 {
			return nil
		}
		for _, ref := range refs {
			placed, pending, ok := ip.blk.Servers(ref.Block)
			if !ok || pending == 0 {
				continue
			}
			strict, _ := ip.blk.EnvStrict(ref.Block)
			var replicas []tenant.ServerID
			var err error
			t.timed("core.place_additional", "rung4.repair", i, func() {
				replicas, err = ip.scheme.PlaceAdditional(ip.rng, placed, 1, core.PlacementConstraints{EnforceEnvironment: strict})
			})
			if err != nil || len(replicas) == 0 {
				ip.blk.Requeue(ref)
				t.accs["rung5.repair_failures"] = addCount(t.accs["rung5.repair_failures"], 1)
				continue
			}
			t.timed("blockledger.replace", "rung4.repair", i, func() { err = ip.blk.Replace(gen, ref, replicas[0]) })
			if err != nil {
				ip.blk.Requeue(ref)
			}
		}
	}
}

// beat5 is one replication beat on standalone state: export both ledgers,
// encode the beat frame, decode it, and apply it to follower ledgers.
func (ip *inproc) beat5(t *tracer, i int, buf []byte) []byte {
	// Each beat starts from a collected heap, so its large allocations
	// are timed alike on every beat.
	runtime.GC()
	var lst ledger.State
	var bst blockledger.State
	t.timed("ledger.export", "beat", i, func() { lst = ip.led.Export() })
	t.timed("blockledger.export", "beat", i, func() { bst = ip.blk.Export() })
	m := wire.ReplBeat{DC: fleetDC, Generation: ip.snap.Generation, Ledger: replLedger(lst), Blocks: replBlocks(bst)}
	t.timed("wire.repl_beat_encode", "beat", i, func() { buf = wire.AppendReplBeat(buf, 0, &m) })
	t.accs["wire.repl_beat_bytes"] = addBytes(t.accs["wire.repl_beat_bytes"], len(buf))
	var d wire.ReplBeat
	t.timed("wire.repl_beat_decode", "beat", i, func() { d.Decode(buf[wire.HeaderSize:]) })
	lst2, bst2 := ledgerState(&d.Ledger), blocksState(&d.Blocks)
	t.timed("ledger.apply", "beat", i, func() { ip.ledF.ApplyState(lst2, len(ip.snap.Clustering.Classes)) })
	t.timed("blockledger.apply", "beat", i, func() { ip.blkF.ApplyState(bst2) })
	return buf
}

func addBytes(a *acc, n int) *acc {
	if a == nil {
		a = &acc{}
	}
	a.n++
	a.ns += float64(n)
	return a
}

// rung6 times the binary codec alone: the server-side request decode and
// response encode of each op.
func rung6(t *tracer, ops []op) {
	var frame, out []byte
	resp := sampleResponses()
	for i, o := range ops {
		frame = encodeOp(frame[:0], uint64(i+1), o, 1<<40+uint64(i))
		payload := frame[wire.HeaderSize:]
		t.timed("wire.decode", "rung3.binary_server", i, func() { decodeRequest(o.kind, payload) })
		t.timed("wire.encode", "rung3.binary_server", i, func() { out = resp.append(out[:0], o.kind, uint64(i+1)) })
	}
}

func decodeRequest(k opKind, payload []byte) error {
	switch k {
	case opSelect, opDrySelect:
		var m wire.SelectReq
		return m.Decode(payload)
	case opRenew:
		var m wire.RenewReq
		return m.Decode(payload)
	case opRelease:
		var m wire.ReleaseReq
		return m.Decode(payload)
	case opPlace:
		var m wire.PlaceReq
		return m.Decode(payload)
	case opClasses:
		var m wire.ClassesReq
		return m.Decode(payload)
	case opServer:
		var m wire.ServerClassReq
		return m.Decode(payload)
	case opCreate:
		var m wire.PlaceBlockReq
		return m.Decode(payload)
	case opReimage:
		var m wire.ReimageReq
		return m.Decode(payload)
	}
	return nil
}

// responses are representative response bodies for the encode rung: one
// granted class per select, one grant per release, three replicas per
// placement.
type responses struct {
	sel     wire.SelectResp
	rel     wire.ReleaseResp
	renew   wire.RenewResp
	place   wire.PlaceResp
	block   wire.PlaceBlockResp
	reimage wire.ReimageResp
}

func sampleResponses() *responses {
	return &responses{
		sel:     wire.SelectResp{Generation: 1, Lease: 1 << 40, ExpiresIn: 120, Job: 1, Satisfiable: true, Classes: []wire.SelectGrant{{Class: 2, Headroom: 812.5, Granted: 1.25}}},
		rel:     wire.ReleaseResp{Lease: 1 << 40, TotalMillis: 1250, Grants: []wire.ReleaseGrant{{Class: 2, Millis: 1250}}},
		renew:   wire.RenewResp{Lease: 1 << 40, TotalMillis: 1250, ExpiresIn: 120},
		place:   wire.PlaceResp{Generation: 1, Replicas: []int64{101, 2202, 3303}},
		block:   wire.PlaceBlockResp{Generation: 1, Block: 1 << 40, Replicas: []int64{101, 2202, 3303}},
		reimage: wire.ReimageResp{Server: 101, Lost: 7, Pending: 12},
	}
}

func (r *responses) append(dst []byte, k opKind, id uint64) []byte {
	switch k {
	case opSelect, opDrySelect:
		return wire.AppendSelectResp(dst, id, &r.sel)
	case opRenew:
		return wire.AppendRenewResp(dst, id, &r.renew)
	case opRelease:
		return wire.AppendReleaseResp(dst, id, &r.rel)
	case opPlace:
		return wire.AppendPlaceResp(dst, id, &r.place)
	case opCreate:
		return wire.AppendPlaceBlockResp(dst, id, &r.block)
	case opReimage:
		return wire.AppendReimageResp(dst, id, &r.reimage)
	}
	return dst
}

// replLedger, ledgerState, replBlocks and blocksState convert between the
// exported ledger states and their replication wire form, as the service's
// replication layer does.
func replLedger(st ledger.State) wire.ReplLedger {
	rl := wire.ReplLedger{
		Generation: st.Generation, ReservedMillis: st.ReservedMillis, ReleasedMillis: st.ReleasedMillis,
		ExpiredMillis: st.ExpiredMillis, ForfeitedMillis: st.ForfeitedMillis, Reserves: st.Reserves,
		Releases: st.Releases, Renews: st.Renews, Expiries: st.Expiries, Conflicts: st.Conflicts,
		Leases: make([]wire.ReplLease, 0, len(st.Leases)),
	}
	for _, ls := range st.Leases {
		wl := wire.ReplLease{ID: ls.ID, JobID: ls.JobID, Owner: ls.Owner, Grants: make([]wire.ReplGrant, len(ls.Grants))}
		if !ls.ExpiresAt.IsZero() {
			wl.ExpiresUnixNano = ls.ExpiresAt.UnixNano()
		}
		for i, g := range ls.Grants {
			wl.Grants[i] = wire.ReplGrant{Class: uint32(g.Class), Millis: g.Millis}
		}
		rl.Leases = append(rl.Leases, wl)
	}
	return rl
}

func ledgerState(m *wire.ReplLedger) ledger.State {
	st := ledger.State{
		Generation: m.Generation, ReservedMillis: m.ReservedMillis, ReleasedMillis: m.ReleasedMillis,
		ExpiredMillis: m.ExpiredMillis, ForfeitedMillis: m.ForfeitedMillis, Reserves: m.Reserves,
		Releases: m.Releases, Renews: m.Renews, Expiries: m.Expiries, Conflicts: m.Conflicts,
		Leases: make([]ledger.PersistedLease, 0, len(m.Leases)),
	}
	for _, wl := range m.Leases {
		pl := ledger.PersistedLease{ID: wl.ID, JobID: wl.JobID, Owner: wl.Owner, Grants: make([]ledger.Grant, len(wl.Grants))}
		if wl.ExpiresUnixNano != 0 {
			pl.ExpiresAt = time.Unix(0, wl.ExpiresUnixNano)
		}
		for i, g := range wl.Grants {
			pl.Grants[i] = ledger.Grant{Class: core.ClassID(g.Class), Millis: g.Millis}
		}
		st.Leases = append(st.Leases, pl)
	}
	return st
}

func replBlocks(st blockledger.State) wire.ReplBlocks {
	rb := wire.ReplBlocks{
		Generation: st.Generation, Lost: st.Lost, Replaced: st.Replaced, Creates: st.Creates,
		Reimages: st.Reimages, Blocks: make([]wire.ReplBlock, 0, len(st.Blocks)),
	}
	for _, pb := range st.Blocks {
		wb := wire.ReplBlock{ID: pb.ID, EnvStrict: pb.EnvStrict, Replicas: make([]wire.ReplBlockReplica, len(pb.Replicas))}
		for i, r := range pb.Replicas {
			wb.Replicas[i] = wire.ReplBlockReplica{Server: int64(r.Server), Placed: r.Placed}
		}
		rb.Blocks = append(rb.Blocks, wb)
	}
	return rb
}

func blocksState(m *wire.ReplBlocks) blockledger.State {
	st := blockledger.State{
		Generation: m.Generation, Lost: m.Lost, Replaced: m.Replaced, Creates: m.Creates,
		Reimages: m.Reimages, Blocks: make([]blockledger.PersistedBlock, 0, len(m.Blocks)),
	}
	for _, wb := range m.Blocks {
		pb := blockledger.PersistedBlock{ID: wb.ID, EnvStrict: wb.EnvStrict, Replicas: make([]blockledger.PersistedReplica, len(wb.Replicas))}
		for i, r := range wb.Replicas {
			pb.Replicas[i] = blockledger.PersistedReplica{Server: tenant.ServerID(r.Server), Placed: r.Placed}
		}
		st.Blocks = append(st.Blocks, pb)
	}
	return st
}

// runTraced is the traced run: one fleet, an open-loop phase for the
// fleet's own books and CPU, then the ladder.
func runTraced(w *workload, pop *population, seed int64, seconds float64, binDir, outDir string) (result, []row, error) {
	g := newGen(seed, pop)
	openSecs := seconds * traceOpenShare
	sched := g.openSchedule(w, openSecs)
	ops := ladderOpsOf(sched)

	f, c, _, err := bootFleet(w, pop, seed, binDir, outDir, 1)
	if err != nil {
		return result{}, nil, err
	}
	defer f.stop()
	defer c.close()

	cpu0, err := f.cpu()
	if err != nil {
		return result{}, nil, err
	}
	router0, err := procCPU(f.router.pid())
	if err != nil {
		return result{}, nil, err
	}
	open, err := c.openPhase(w, sched, time.Now().Add(20*time.Millisecond))
	if err != nil {
		return result{}, nil, err
	}
	cpu1, err := f.cpu()
	if err != nil {
		return result{}, nil, err
	}
	router1, err := procCPU(f.router.pid())
	if err != nil {
		return result{}, nil, err
	}
	cpuPerOpUS := float64((cpu1 - cpu0).Microseconds()) / float64(open.completed)
	routerCPUPerOpUS := float64((router1 - router0).Microseconds()) / float64(open.completed)

	t := newTracer()
	// Rungs 1 and 2 against the fleet, from the state the open loop left.
	via := *c
	direct := *c
	if w.binary {
		direct.binAddr = f.primaryBin
	} else {
		via.binAddr, direct.binAddr = "", ""
		direct.httpBase = "http://" + f.primaryHTTP
	}
	if err := rungTCP(t, &via, ops, "rung1.router", ""); err != nil {
		return result{}, nil, err
	}
	if err := rungTCP(t, &direct, ops, "rung2.primary", "rung1.router"); err != nil {
		return result{}, nil, err
	}
	var rv routerView
	rvErr := getJSON("http://"+f.routerHTTP+"/metrics", &rv)
	books, errs := finish(w, f, c)
	if rvErr != nil {
		errs = append(errs, rvErr)
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "check failed:", e)
		}
		return result{}, nil, fmt.Errorf("%d end-of-run checks failed", len(errs))
	}
	c.close()
	f.stop()

	// Rungs 3-6 in-process on one P with the collector off, so the
	// service's pooled RNGs and buffers are reused the same way on every
	// run. Allocation counts then repeat up to map growth, which Go's
	// per-map hash seeds and the ledgers' random ids still vary slightly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ip, err := newInproc(pop)
	if err != nil {
		return result{}, nil, err
	}
	defer ip.close()
	if err := ip.preload(w, newGen(seed^0x5eed, pop)); err != nil {
		return result{}, nil, err
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := ip.rung3(t, w, ops); err != nil {
		return result{}, nil, err
	}
	if err := ip.rung45(t, ops); err != nil {
		return result{}, nil, err
	}
	var h obs.Histogram
	for i := range ops {
		d := time.Duration(t.spans[i].End - t.spans[i].Start)
		t.timed("obs.observe", "rung3", i, func() { h.Observe(d) })
	}
	if w.binary {
		rung6(t, ops)
	}
	if err := t.write(filepath.Join(outDir, "spans.jsonl")); err != nil {
		return result{}, nil, err
	}
	return layerMetrics(w, t, len(ops), cpuPerOpUS, routerCPUPerOpUS, open, books, c.b, rv)
}

// layerMetrics derives every per-layer metric from the spans and the
// fleet's books. Layers the workload does not exercise read zero.
func layerMetrics(w *workload, t *tracer, nOps int, cpuPerOpUS, routerCPUPerOpUS float64, open *phaseResult, fb dcBooks, b *books, rv routerView) (result, []row, error) {
	m := map[string]metric{}
	var table []row
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
		table = append(table, row{Name: name, Value: v, Unit: unit})
	}
	perOp := func(name string) (ns, allocs float64) {
		tot, a := t.total(name)
		return tot / float64(nOps), a / float64(nOps)
	}
	// timedMetric reports a self time and its allocations per call.
	timedMetric := func(name string, ns, allocs float64) {
		set(name+"_ns", ns, "ns")
		set(name+"_allocs", allocs, "allocs/op")
	}
	leaf := func(metricName, span string) {
		ns, a := t.mean(span)
		timedMetric(metricName, ns, a)
	}
	// selfOf is a Service method's self time: its rung-4 span minus the
	// rung-5 calls it makes, per call.
	selfOf := func(metricName, span string, children ...string) {
		n := t.count(span)
		if n == 0 {
			timedMetric(metricName, 0, 0)
			return
		}
		ns, a := t.total(span)
		for _, ch := range children {
			cns, ca := childTotal(t, ch, span)
			ns -= cns
			a -= ca
		}
		timedMetric(metricName, ns/float64(n), a/float64(n))
	}

	r1, _ := perOp("rung1.router")
	r2, _ := perOp("rung2.primary")
	var r3, r3a float64
	if w.binary {
		r3, r3a = perOp("rung3.binary_server")
	} else {
		r3, r3a = perOp("rung3.api")
	}
	var r4, r4a float64
	for _, name := range []string{"rung4.select_reserve", "rung4.renew", "rung4.release", "rung4.select", "rung4.place",
		"rung4.classes", "rung4.server", "rung4.ingest", "rung4.create_block", "rung4.reimage"} {
		ns, a := perOp(name)
		r4 += ns
		r4a += a
	}
	dec, deca := perOp("wire.decode")
	enc, enca := perOp("wire.encode")

	relay := (r1 - r2) / 1e3
	if w.binary {
		set("router.binary_relay_us", relay, "us")
		set("router.http_proxy_us", 0, "us")
	} else {
		set("router.binary_relay_us", 0, "us")
		set("router.http_proxy_us", relay, "us")
	}
	var reads, followerReads float64
	for name, be := range rv.Router.Backends {
		reads += float64(be.Reads)
		if name == "follower" {
			followerReads += float64(be.Reads)
		}
	}
	set("router.follower_read_share", followerReads/reads, "ratio")
	set("loopback.tcp_us", (r2-r3)/1e3, "us")
	if w.binary {
		timedMetric("service.binary_frame", r3-r4-dec-enc, r3a-r4a-deca-enca)
		timedMetric("service.http_request", 0, 0)
	} else {
		timedMetric("service.binary_frame", 0, 0)
		timedMetric("service.http_request", r3-r4, r3a-r4a)
	}
	leaf("wire.encode", "wire.encode")
	leaf("wire.decode", "wire.decode")

	selfOf("service.select_reserve", "rung4.select_reserve", "core.select_indexed", "ledger.reserve")
	selfOf("service.release", "rung4.release", "ledger.release")
	selfOf("service.renew", "rung4.renew", "ledger.renew")
	leaf("ledger.reserve", "ledger.reserve")
	leaf("ledger.release", "ledger.release")
	leaf("ledger.renew", "ledger.renew")
	set("ledger.conflict_ratio", float64(fb.Ledger.Conflicts)/float64(fb.Ledger.Reserves), "ratio")
	selfOf("service.select", "rung4.select", "core.select_indexed")
	leaf("core.select_indexed", "core.select_indexed")
	selfOf("service.place", "rung4.place", "core.place_replicas")

	leaf("ledger.export", "ledger.export")
	leaf("ledger.apply", "ledger.apply")
	leaf("wire.repl_beat_encode", "wire.repl_beat_encode")
	leaf("wire.repl_beat_decode", "wire.repl_beat_decode")
	beatBytes, _ := t.mean("wire.repl_beat_bytes")
	set("wire.repl_beat_bytes", beatBytes, "bytes")
	leaf("blockledger.export", "blockledger.export")
	leaf("blockledger.apply", "blockledger.apply")

	selfOf("service.create_block", "rung4.create_block", "core.place_replicas", "blockledger.create")
	leaf("core.place_replicas", "core.place_replicas")
	leaf("blockledger.create", "blockledger.create")
	selfOf("service.reimage", "rung4.reimage", "blockledger.reimage")
	leaf("blockledger.reimage", "blockledger.reimage")
	// Repair is per replaced replica: RepairBlocks calls over the replicas
	// they landed, minus the placement and ledger calls per replica.
	if replicas := t.count("rung4.repair.replicas"); replicas > 0 {
		ns, a := t.total("rung4.repair")
		pns, pa := t.total("core.place_additional")
		rns, ra := t.total("blockledger.replace")
		n5 := float64(t.count("blockledger.replace"))
		timedMetric("service.repair", ns/float64(replicas)-(pns+rns)/n5, a/float64(replicas)-(pa+ra)/n5)
	} else {
		timedMetric("service.repair", 0, 0)
	}
	leaf("core.place_additional", "core.place_additional")
	leaf("blockledger.replace", "blockledger.replace")
	set("blockledger.repair_failure_ratio", float64(fb.RepairFailures)/float64(fb.RepairFailures+uint64(fb.Blocks.Replaced)), "ratio")
	picks := 3*(float64(fb.Blocks.Creates)+float64(b.places.Load())) + float64(fb.Blocks.Replaced)
	set("core.placement_relaxed_ratio", float64(fb.PlacementRelaxedTotal)/picks, "ratio")

	leaf("service.ingest", "rung4.ingest")
	selfOf("service.refresh", "rung4.refresh", "core.recluster")
	leaf("core.recluster", "core.recluster")
	leaf("obs.observe", "obs.observe")

	// Attribution: the layer self times per op the ladder measured (the
	// router's relay, rung 3 with everything under it, the histogram
	// observe) plus the background work the fleet does per op (beats on
	// both ends, refreshes, repairs), against the fleet's measured CPU per
	// op. loopback.tcp_us is the kernel's share and stays in the residual,
	// as does the router process's own CPU, which is reported beside it but
	// not counted: it is part of the fleet CPU the ratio divides by.
	obsNS, _ := t.mean("obs.observe")
	explainedUS := relay + (r3+obsNS)/1e3
	beatsPerOp := 4 / w.rate // one beat per 250 ms at the open-loop rate
	var beatNS float64
	for _, s := range []string{"ledger.export", "blockledger.export", "wire.repl_beat_encode", "wire.repl_beat_decode", "ledger.apply", "blockledger.apply"} {
		ns, _ := t.mean(s)
		beatNS += ns
	}
	explainedUS += beatsPerOp * beatNS / 1e3
	if n := t.count("rung4.refresh"); n > 0 {
		ns, _ := t.total("rung4.refresh")
		explainedUS += ns / float64(n) * 2 / w.rate / 1e3 // 500 ms refresh period
	}
	if replicas := t.count("rung4.repair.replicas"); replicas > 0 {
		ns, _ := t.total("rung4.repair")
		lostPerOp := float64(b.lostReplicas.Load()) / float64(open.completed)
		explainedUS += ns / float64(replicas) * lostPerOp / 1e3
	}
	set("attribution.explained_ratio", explainedUS/cpuPerOpUS, "ratio")
	set("attribution.residual_us_per_op", cpuPerOpUS-explainedUS, "us")

	late, err := summarize(open.genLateUS)
	if err != nil {
		return result{}, nil, err
	}
	set("gen_late_p99_us", late.P99, "us")
	rw, _ := repairWait(b, open.elapsed)
	set("repair_wait_ms", rw, "ms")
	table = append(table, row{"ladder_ops", float64(nOps), "count", "ops replayed per rung"},
		row{"fleet_cpu_us_per_op", cpuPerOpUS, "us/op", "traced run's open loop, the attribution base"},
		row{"router_cpu_us_per_op", routerCPUPerOpUS, "us/op", "router process alone, part of the base, not counted as explained"})

	attempted := b.attempted.Load()
	failed := b.failed.Load() + b.refused.Load() + b.timedOut.Load() + b.skipped.Load()
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, table, nil
}

// childTotal sums a rung-5 span's duration and allocations over the calls
// made on behalf of one rung-4 span.
func childTotal(t *tracer, child, parent string) (ns, allocs float64) {
	for _, s := range t.spans {
		if s.Name == child && s.Parent == parent {
			ns += float64(s.End - s.Start)
			allocs += float64(s.Allocs)
		}
	}
	return ns, allocs
}

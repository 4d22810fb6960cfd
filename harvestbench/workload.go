package main

import (
	"fmt"
	"math"
	"math/rand"

	"harvest/internal/experiments"
	"harvest/internal/tenant"
)

// opKind is one request type the generator sends.
type opKind uint8

const (
	opSelect    opKind = iota // reserving select (Alg. 1 grant)
	opRenew                   // renew a held lease
	opRelease                 // release the oldest held lease
	opDrySelect               // advisory select, reserves nothing
	opPlace                   // advisory replica placement (Alg. 2)
	opClasses                 // list utilization classes
	opServer                  // class of one server
	opIngest                  // one telemetry slot for every tenant
	opCreate                  // place and record a block (Alg. 2, durable)
	opReimage                 // reimage one server
	numOpKinds
)

var opNames = [numOpKinds]string{"select", "renew", "release", "dryselect", "place", "classes", "server", "ingest", "create", "reimage"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request. Which fields matter depends on kind.
type op struct {
	kind   opKind
	cores  float64 // select/dryselect demand
	job    uint8   // select/dryselect job type (wire.Job* code)
	server int64   // server class lookup, reimage target, place writer
	pick   float64 // renew: which of the newer half of held leases
}

type weighted struct {
	kind   opKind
	weight int
}

// workload is one traffic mix. The open-loop rates are set once here, not
// scaled per run, so a regression shows as latency, not as a different
// offered load. Each keeps the pinned vCPU about half busy (generator plus
// fleet, the vcpu_share_pct row). That is far below half of the pipelined
// closed-loop capacity: an open loop near it saturates the vCPU, so its
// latency is queueing and its CPU per op follows the rate, not the code.
// README.md records the measurements.
type workload struct {
	name    string
	binary  bool   // binary frame dialect (else JSON over HTTP)
	refresh string // harvestd -refresh
	rate    float64
	mix     []weighted // open-loop mix at rate
	closed  []weighted // closed-loop (capacity) mix
	depth   int        // closed-loop pipeline depth per binary connection

	ingestRate    float64 // fixed-rate telemetry slots per second (query-json)
	reimageRate   float64 // Poisson reimages per second (block-reimage)
	preloadBlocks int     // blocks created during set-up (block-reimage)
	preloadLeases bool    // fill the DC to half capacity with leases (lease-churn)
}

var workloads = []*workload{
	{
		name: "lease-churn", binary: true, refresh: "0", rate: 5000, depth: 32,
		mix:           []weighted{{opSelect, 40}, {opRenew, 20}, {opRelease, 40}},
		closed:        []weighted{{opSelect, 40}, {opRenew, 20}, {opRelease, 40}},
		preloadLeases: true,
	},
	{
		name: "query-json", binary: false, refresh: "500ms", rate: 400,
		mix:        []weighted{{opDrySelect, 40}, {opPlace, 30}, {opClasses, 15}, {opServer, 15}},
		closed:     []weighted{{opDrySelect, 40}, {opPlace, 30}, {opClasses, 15}, {opServer, 15}},
		ingestRate: 20,
	},
	{
		name: "block-reimage", binary: true, refresh: "0", rate: 2000, depth: 32,
		mix: []weighted{{opCreate, 1}},
		// Closed-loop creates would grow the block ledger without bound, so
		// capacity is measured on the advisory placement path (same Alg. 2
		// code, nothing recorded).
		closed:        []weighted{{opPlace, 1}},
		reimageRate:   4,
		preloadBlocks: 4000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// population is the locally regenerated DC: the same (scale, seed) the
// daemons boot with, so server ids and reimage rates match theirs.
type population struct {
	pop     *tenant.Population
	servers []int64
	// cumRate is the cumulative reimage weight over servers, for drawing
	// reimage targets in proportion to their tenant's reimage rate.
	cumRate []float64
}

func loadPopulation() (*population, error) {
	pop, _, err := experiments.BuildPopulation(fleetDC, experiments.Scale{Datacenter: fleetScale, Seed: populationSeed})
	if err != nil {
		return nil, err
	}
	p := &population{pop: pop}
	var cum float64
	for _, t := range pop.Tenants {
		for _, s := range t.Servers {
			p.servers = append(p.servers, int64(s))
			// The epsilon keeps servers of tenants with no recorded history
			// reimageable, as loadgen -storage does.
			cum += t.ReimagesPerServerMonth + 0.01
			p.cumRate = append(p.cumRate, cum)
		}
	}
	return p, nil
}

func (p *population) randomServer(rng *rand.Rand) int64 {
	return p.servers[rng.Intn(len(p.servers))]
}

// reimageTarget draws a server with probability proportional to its
// tenant's reimage rate.
func (p *population) reimageTarget(rng *rand.Rand) int64 {
	x := rng.Float64() * p.cumRate[len(p.cumRate)-1]
	lo, hi := 0, len(p.cumRate)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cumRate[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.servers[lo]
}

// gen draws ops for one workload from the workload seed.
type gen struct {
	rng *rand.Rand
	pop *population
}

func newGen(seed int64, pop *population) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), pop: pop}
}

func (g *gen) draw(mix []weighted) op {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	x := g.rng.Intn(total)
	for _, m := range mix {
		if x < m.weight {
			return g.make(m.kind)
		}
		x -= m.weight
	}
	panic("unreachable")
}

// leaseCores is the demand of one churned or preloaded lease: small, so
// thousands of them hold the DC at half its harvestable capacity.
func (g *gen) leaseCores() float64 { return math.Round((0.5+1.5*g.rng.Float64())*100) / 100 }

func (g *gen) make(k opKind) op {
	o := op{kind: k, server: -1}
	switch k {
	case opSelect:
		o.job, o.cores = 1, g.leaseCores()
	case opRenew:
		o.pick = g.rng.Float64()
	case opDrySelect:
		o.job, o.cores = uint8(g.rng.Intn(3)), math.Round((1+15*g.rng.Float64())*100)/100
	case opPlace, opServer:
		o.server = g.pop.randomServer(g.rng)
	case opReimage:
		o.server = g.pop.reimageTarget(g.rng)
	}
	return o
}

// scheduled is an op with its due offset from the phase start.
type scheduled struct {
	due float64 // seconds
	op  op
}

// openSchedule lays out an open-loop phase of the given length: the main mix
// at a fixed rate, fixed-rate telemetry slots and Poisson reimages merged in
// due order.
func (g *gen) openSchedule(w *workload, seconds float64) []scheduled {
	var out []scheduled
	n := int(w.rate * seconds)
	for i := 0; i < n; i++ {
		out = append(out, scheduled{due: float64(i) / w.rate, op: g.draw(w.mix)})
	}
	if w.ingestRate > 0 {
		for t := 0.5 / w.ingestRate; t < seconds; t += 1 / w.ingestRate {
			out = append(out, scheduled{due: t, op: op{kind: opIngest, server: -1}})
		}
	}
	if w.reimageRate > 0 {
		for t := g.rng.ExpFloat64() / w.reimageRate; t < seconds; t += g.rng.ExpFloat64() / w.reimageRate {
			out = append(out, scheduled{due: t, op: g.make(opReimage)})
		}
	}
	sortSchedule(out)
	return out
}

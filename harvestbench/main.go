// Command harvestbench is the repository's benchmark. It boots a real fleet
// (harvestrouter in front of a replicating harvestd primary and one
// follower, serving DC-9 at scale 0.25 with population seed 1), drives one
// named workload at it from this single load-generator process, checks the
// fleet's books at the end, and prints one JSON line of results.
//
//	harvestbench --workload lease-churn|query-json|block-reimage
//	             --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it replays the workload's op sequence down a ladder of public
// entry points instead and reports per-layer self times (ladder.go).
//
// It expects the daemons prebuilt in .bench_build/bin (run.sh builds them
// from the checkout it runs in) and writes logs, spans and result stamps
// under .bench_build.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	buildDir = ".bench_build"
	// setupRepeats: set-up is timed on this many fresh fleets per run and
	// the median reported; the last fleet is the one measured.
	setupRepeats = 3
	// openShare is the open-loop part of --seconds; the rest is closed-loop.
	openShare = 2.0 / 3
	// window splits both phases: capacity is the median closed-loop window
	// and fleet CPU per op the median open-loop window, so a burst of outside
	// load during part of a phase does not move them. One second spans four
	// replication beats and two of query-json's 500 ms refreshes.
	window = time.Second
	// genLateLimitUS rejects a run whose generator, not the fleet, fell
	// behind schedule: its own median sending delay past the due instant.
	// Bursts of lateness in the tail follow the fleet's CPU bursts on a
	// shared box and are reported, not rejected.
	genLateLimitUS = 500
)

func main() {
	workloadName := flag.String("workload", "", "lease-churn, query-json or block-reimage")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 replays the workload down the layer ladder for per-layer metrics")
	flag.Parse()

	// Interrupted, the benchmark still stops the daemons it started.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	if err := run(*workloadName, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "harvestbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env stamps a result with where and how it was measured.
type env struct {
	Commit         string  `json:"commit"`
	GoVersion      string  `json:"go_version"`
	NProc          int     `json:"nproc"`
	CPUModel       string  `json:"cpu_model"`
	GenGOMAXPROCS  int     `json:"generator_gomaxprocs"`
	FleetGOMAXPROC string  `json:"fleet_gomaxprocs"`
	Pinning        string  `json:"pinning"`
	Scale          float64 `json:"scale"`
	PopulationSeed int     `json:"population_seed"`
	WorkloadSeed   int64   `json:"workload_seed"`
	Workload       string  `json:"workload"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
}

func stamp(w *workload, seed int64, seconds float64, trace bool) env {
	e := env{
		Commit: commitOf(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), GenGOMAXPROCS: runtime.GOMAXPROCS(0), FleetGOMAXPROC: fleetProcs,
		Pinning: pinning, Scale: fleetScale, PopulationSeed: populationSeed,
		WorkloadSeed: seed, Workload: w.name, Seconds: seconds, Trace: trace,
	}
	return e
}

// commitOf names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of its Go sources and module file.
func commitOf() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func run(name string, seed int64, seconds float64, trace bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if runtime.GOMAXPROCS(0) > dataConns {
		runtime.GOMAXPROCS(dataConns)
	}
	binDir := filepath.Join(buildDir, "bin")
	for _, prog := range []string{"harvestd", "harvestrouter"} {
		if _, err := os.Stat(filepath.Join(binDir, prog)); err != nil {
			return fmt.Errorf("daemon binary missing (build with harvestbench/run.sh): %w", err)
		}
	}
	outDir := filepath.Join(buildDir, "out", fmt.Sprintf("%s-seed%d-trace%v", w.name, seed, trace))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	e := stamp(w, seed, seconds, trace)
	pop, err := loadPopulation()
	if err != nil {
		return err
	}

	var res result
	var table []row
	if trace {
		res, table, err = runTraced(w, pop, seed, seconds, binDir, outDir)
	} else {
		res, table, err = runEndToEnd(w, pop, seed, seconds, binDir, outDir)
	}
	if err != nil {
		return err
	}
	envJSON, _ := json.Marshal(e)
	fmt.Printf("env %s\n", envJSON)
	for _, r := range table {
		fmt.Printf("%-10s %-36s %14.4f %-8s %s\n", w.name, r.Name, r.Value, r.Unit, r.Note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	stampFile, _ := json.MarshalIndent(struct {
		Env    env    `json:"env"`
		Table  []row  `json:"table"`
		Result result `json:"result"`
	}{e, table, res}, "", "  ")
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), stampFile, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// row is one printed line of the human-readable table.
type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// bootFleet sets up setupRepeats fresh fleets, each to the workload's
// starting state, and returns the last one running with its client and the
// median set-up time.
func bootFleet(w *workload, pop *population, seed int64, binDir, outDir string, repeats int) (*fleet, *client, float64, error) {
	var setups []float64
	for i := 0; i < repeats; i++ {
		logDir := filepath.Join(outDir, fmt.Sprintf("fleet%d", i))
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		f, err := startFleet(binDir, logDir, w.refresh)
		if err != nil {
			return nil, nil, 0, err
		}
		c := newClient(f.routerBinary, f.routerHTTP, pop)
		// The preload draws from its own stream so every fleet gets the
		// same starting state and the measured schedule does not depend on
		// how many fleets were set up.
		if err := c.preload(w, newGen(seed^0x5eed, pop)); err != nil {
			c.close()
			f.stop()
			return nil, nil, 0, err
		}
		if err := f.quiesce(3 * time.Second); err != nil {
			c.close()
			f.stop()
			return nil, nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == repeats-1 {
			if err := f.pin(); err != nil {
				c.close()
				f.stop()
				return nil, nil, 0, err
			}
			return f, c, median(setups), nil
		}
		c.close()
		f.stop()
	}
	panic("unreachable")
}

// runEndToEnd is the untraced run: set-up, an open-loop phase at the
// workload's fixed rate, a closed-loop phase for capacity, then the books.
func runEndToEnd(w *workload, pop *population, seed int64, seconds float64, binDir, outDir string) (result, []row, error) {
	g := newGen(seed, pop)
	sched := g.openSchedule(w, seconds*openShare)
	capWindows := max(1, int(seconds*(1-openShare)+0.5))

	f, c, setupS, err := bootFleet(w, pop, seed, binDir, outDir, setupRepeats)
	if err != nil {
		return result{}, nil, err
	}
	defer f.stop()
	defer c.close()

	steal0, total0 := cpuSteal(pinnedCPU)
	cpu0, err := f.cpu()
	if err != nil {
		return result{}, nil, err
	}
	gen0, err := procCPU(os.Getpid())
	if err != nil {
		return result{}, nil, err
	}
	openSecs := seconds * openShare
	start := time.Now().Add(20 * time.Millisecond)
	sampled := make(chan cpuWindows, 1)
	go func() { sampled <- f.sampleCPU(c.b, start, openSecs) }()
	open, err := c.openPhase(w, sched, start)
	if err != nil {
		return result{}, nil, err
	}
	cpu1, err := f.cpu()
	if err != nil {
		return result{}, nil, err
	}
	gen1, err := procCPU(os.Getpid())
	if err != nil {
		return result{}, nil, err
	}
	steal1, total1 := cpuSteal(pinnedCPU)
	closed, err := c.closedPhase(w, g, capWindows)
	if err != nil {
		return result{}, nil, err
	}
	share := 100 * (cpu1 - cpu0 + gen1 - gen0).Seconds() / open.elapsed.Seconds()
	steal := 100 * float64(steal1-steal0) / float64(total1-total0)

	books, errs := finish(w, f, c)
	rss, err := f.hwmMB()
	if err != nil {
		errs = append(errs, err)
	}
	cw := <-sampled
	if cw.err != nil {
		errs = append(errs, fmt.Errorf("fleet CPU: %w", cw.err))
	}
	lat, err := summarize(open.latUS)
	if err != nil {
		errs = append(errs, fmt.Errorf("open-loop latency: %w", err))
	}
	fleetLat, err := summarize(open.fleetUS)
	if err != nil {
		errs = append(errs, fmt.Errorf("open-loop latency less generator lateness: %w", err))
	}
	late, err := summarize(open.genLateUS)
	if err != nil {
		errs = append(errs, fmt.Errorf("generator lateness: %w", err))
	}
	if late.P50 > genLateLimitUS {
		errs = append(errs, fmt.Errorf("generator fell behind its own schedule: median lateness %.0f µs > %d µs", late.P50, genLateLimitUS))
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "check failed:", e)
		}
		return result{}, nil, fmt.Errorf("%d end-of-run checks failed", len(errs))
	}

	b := c.b
	attempted, failed := b.attempted.Load(), b.failed.Load()+b.refused.Load()+b.timedOut.Load()+b.skipped.Load()
	// Capacity is the median window after the first, which warms the
	// closed loop up (heaps and collection pacing settle after the open
	// phase).
	warm := closed.windowOps
	if len(warm) > 1 {
		warm = warm[1:]
	}
	caps := make([]float64, len(warm))
	for i, n := range warm {
		caps[i] = float64(n) / window.Seconds()
	}
	capacity := median(caps)
	cpuPerOp := median(cw.perOpUS)
	wholeCPUPerOp := float64((cpu1 - cpu0).Microseconds()) / float64(open.completed)
	res := result{
		Correct: true, Attempted: attempted, Failed: failed,
		// capacity_ops_s and p99_us are printed below but not part of the
		// result: on the shared 2-vCPU virtual machine this was built on,
		// their run-to-run spread over ten seeds (0.2-0.7 of the median)
		// followed the host's speed and could not be held under the 0.25
		// the result's bounds allow.
		Metrics: map[string]metric{
			"setup_s":             {setupS, "s"},
			"p50_us":              {lat.P50, "us"},
			"fleet_cpu_us_per_op": {cpuPerOp, "us/op"},
			"fleet_rss_mb":        {rss, "MiB"},
		},
	}
	table := []row{
		{"setup_s", setupS, "s", fmt.Sprintf("median of %d fresh fleets", setupRepeats)},
		{"capacity_ops_s", capacity, "ops/s", fmt.Sprintf("median %v window of %s after a %v warm-up; %s", window, fmtList(caps), window, closedNote(w))},
		{"p50_us", lat.P50, "us", fmt.Sprintf("open loop at %.0f ops/s for %.1fs, timed from the due instant, n=%d", w.rate, openSecs, lat.N)},
		{"p99_us", lat.P99, "us", fmt.Sprintf("same samples, n=%d, max %.0f", lat.N, lat.Max)},
		{"p50_fleet_us", fleetLat.P50, "us", "p50_us less each request's own generator lateness"},
		{"p99_fleet_us", fleetLat.P99, "us", fmt.Sprintf("p99_us less each request's own generator lateness, max %.0f", fleetLat.Max)},
		{"fleet_cpu_us_per_op", cpuPerOp, "us/op", fmt.Sprintf("router+primary+follower user+sys per completed op, median %v open-loop window of %s; whole open loop %.1f", window, fmtList(cw.perOpUS), wholeCPUPerOp)},
		{"fleet_rss_mb", rss, "MiB", "sum of daemon VmHWM"},
		{"error_ratio", float64(failed) / float64(attempted), "ratio", fmt.Sprintf("%d of %d failed, refused or timed out", failed, attempted)},
		{"gen_late_p99_us", late.P99, "us", fmt.Sprintf("generator's own lateness; median %.0f, limit %d on the median", late.P50, genLateLimitUS)},
		{"vcpu_share_pct", share, "%", fmt.Sprintf("generator+fleet CPU over the open loop, all on %s", pinnedCPU)},
		{"steal_pct", steal, "%", fmt.Sprintf("%s time the host took away over the open loop", pinnedCPU)},
	}
	if w.reimageRate > 0 {
		rw, note := repairWait(b, open.elapsed)
		table = append(table, row{"repair_wait_ms", rw, "ms", note})
	}
	table = append(table, row{"books", float64(books.Ledger.Reserves + uint64(books.Blocks.Creates)), "count",
		"reserves+creates on the primary; conservation exact on primary and follower"})
	return res, table, nil
}

func closedNote(w *workload) string {
	if w.binary {
		return fmt.Sprintf("closed loop, %d conns x depth %d, mix %s", dataConns, w.depth, mixString(w.closed))
	}
	return fmt.Sprintf("closed loop, %d HTTP/1.1 conns, mix %s", dataConns, mixString(w.closed))
}

func mixString(mix []weighted) string {
	var parts []string
	for _, m := range mix {
		parts = append(parts, fmt.Sprintf("%s=%d", m.kind, m.weight))
	}
	return strings.Join(parts, ",")
}

// repairWait is the mean time a lost replica spends below R, by Little's
// law: mean pending slots (sampled just before each Poisson-scheduled
// reimage, so arrivals see time averages) over the lost-replica arrival
// rate.
func repairWait(b *books, elapsed time.Duration) (float64, string) {
	n := b.reimages.Load()
	lost := b.lostReplicas.Load()
	if n == 0 || lost == 0 {
		return 0, "no replica lost"
	}
	meanPending := float64(b.pendingSum.Load()-lost) / float64(n)
	rate := float64(lost) / elapsed.Seconds()
	return meanPending / rate * 1000, fmt.Sprintf("%d reimages, %d replicas lost, mean pending %.1f", n, lost, meanPending)
}

// openPhase runs the open-loop schedule from start over the workload's
// dialect.
func (c *client) openPhase(w *workload, sched []scheduled, start time.Time) (*phaseResult, error) {
	if !w.binary {
		return c.runOpenJSON(sched, start), nil
	}
	// Binary ops alternate between the connections.
	shares := make([][]scheduled, dataConns)
	for i, s := range sched {
		shares[i%dataConns] = append(shares[i%dataConns], s)
	}
	return c.onConns(func(i int, bc *binConn) *phaseResult { return bc.runOpen(shares[i], start) })
}

// closedPhase measures capacity over the given number of windows.
func (c *client) closedPhase(w *workload, g *gen, windows int) (*phaseResult, error) {
	start := time.Now()
	if !w.binary {
		return c.runClosedJSON(g, w.closed, start, window, windows), nil
	}
	gens := make([]*gen, dataConns)
	for i := range gens {
		gens[i] = newGen(g.rng.Int63(), g.pop)
	}
	return c.onConns(func(i int, bc *binConn) *phaseResult {
		return bc.runClosed(gens[i], w.closed, w.depth, start, window, windows)
	})
}

// onConns runs fn on dataConns fresh binary connections at once and merges
// what they observed.
func (c *client) onConns(fn func(int, *binConn) *phaseResult) (*phaseResult, error) {
	conns := make([]*binConn, dataConns)
	for i := range conns {
		bc, err := c.dialBinary()
		if err != nil {
			for _, open := range conns[:i] {
				open.close()
			}
			return nil, err
		}
		conns[i] = bc
	}
	results := make([]*phaseResult, dataConns)
	var wg sync.WaitGroup
	for i, bc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = fn(i, bc)
		}()
	}
	wg.Wait()
	total := &phaseResult{}
	for _, r := range results {
		total.merge(r)
	}
	return total, nil
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', 0, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The fleet under test: one harvestrouter in front of a replicating harvestd
// primary and one harvestd follower, all serving DC-9 at a fixed scale and
// population seed. Only the workload seed varies between runs.
const (
	fleetDC        = "DC-9"
	fleetScale     = 0.25
	populationSeed = 1
	fleetProcs     = "2" // GOMAXPROCS of every daemon
	announceEvery  = "500ms"
	readyTimeout   = 60 * time.Second
)

// daemon is one spawned fleet process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once cmd.Wait returns
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// fleet is a running router + primary + follower.
type fleet struct {
	router, primary, follower *daemon

	routerHTTP, routerBinary string // router front ends
	primaryHTTP, primaryBin  string // the primary's own listeners
	followerHTTP             string
}

// freeAddr finds a free loopback port below the kernel's ephemeral range
// (32768 and up by default), so the port cannot be taken by an outgoing
// connection between this check and the daemon's bind.
func freeAddr() (string, error) {
	for try := 0; try < 100; try++ {
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(10000+rand.Intn(20000)))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", errors.New("no free loopback port")
}

func freeAddrs(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// spawn starts one daemon with its output in logDir/<name>.log.
func spawn(binDir, logDir, name, prog string, args ...string) (*daemon, error) {
	log, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, prog), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+fleetProcs)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: log, done: make(chan struct{})}
	live.Store(d, struct{}{})
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// live holds every daemon started and not yet stopped, so an interrupted
// benchmark can still stop them (stopAll).
var live sync.Map

// stopAll stops every live daemon.
func stopAll() {
	live.Range(func(k, _ any) bool {
		k.(*daemon).stop()
		return true
	})
}

// stop sends SIGTERM (the daemons drain gracefully), escalates to SIGKILL
// after a grace period, and returns once the process has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	if _, ok := live.LoadAndDelete(d); !ok {
		return // already stopped
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// startFleet spawns the three daemons and waits until the fleet serves: the
// router has registered the primary on both dialects and a caught-up
// follower of it.
func startFleet(binDir, logDir, refresh string) (*fleet, error) {
	addrs, err := freeAddrs(7)
	if err != nil {
		return nil, err
	}
	f := &fleet{
		routerHTTP: addrs[0], routerBinary: addrs[1],
		primaryHTTP: addrs[2], primaryBin: addrs[3],
		followerHTTP: addrs[5],
	}
	primaryRepl, followerBin := addrs[4], addrs[6]
	common := []string{
		"-dcs", fleetDC, "-scale", strconv.FormatFloat(fleetScale, 'g', -1, 64),
		"-seed", strconv.Itoa(populationSeed), "-refresh", refresh,
		"-announce", "http://" + f.routerHTTP, "-announce-interval", announceEvery,
	}
	if f.router, err = spawn(binDir, logDir, "router", "harvestrouter",
		"-listen", f.routerHTTP, "-binary-listen", f.routerBinary); err != nil {
		return nil, err
	}
	if f.primary, err = spawn(binDir, logDir, "primary", "harvestd", append([]string{
		"-listen", f.primaryHTTP, "-binary-addr", f.primaryBin,
		"-replicate-addr", primaryRepl, "-node-id", "primary"}, common...)...); err != nil {
		f.stop()
		return nil, err
	}
	if f.follower, err = spawn(binDir, logDir, "follower", "harvestd", append([]string{
		"-listen", f.followerHTTP, "-binary-addr", followerBin,
		"-follow", primaryRepl, "-node-id", "follower"}, common...)...); err != nil {
		f.stop()
		return nil, err
	}
	if err := f.waitReady(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) daemons() []*daemon { return []*daemon{f.router, f.primary, f.follower} }

// stop terminates every daemon and waits for each to exit.
func (f *fleet) stop() {
	for _, d := range f.daemons() {
		d.stop()
	}
}

// routerView is the slice of the router's /metrics the benchmark reads.
type routerView struct {
	Router struct {
		Backends map[string]backendView `json:"backends"`
	} `json:"router"`
}

type backendView struct {
	BinaryAddr string            `json:"binary_addr"`
	Role       string            `json:"role"`
	PrimaryID  string            `json:"primary_id"`
	Alive      bool              `json:"alive"`
	Reads      uint64            `json:"reads"`
	Proxied    uint64            `json:"proxied"`
	Datacenter map[string]uint64 `json:"datacenters"`
}

func (f *fleet) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		for _, d := range f.daemons() {
			if d.exited() {
				return fmt.Errorf("%s exited during boot (see its log)", d.name)
			}
		}
		if f.ready() {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("fleet not ready within " + readyTimeout.String())
}

// ready reports whether the router routes DC-9 on both dialects to the
// primary and lists the follower at the primary's generation.
func (f *fleet) ready() bool {
	var rv routerView
	if getJSON("http://"+f.routerHTTP+"/metrics", &rv) != nil {
		return false
	}
	p, f1 := rv.Router.Backends["primary"], rv.Router.Backends["follower"]
	if !p.Alive || p.Role != "primary" || p.BinaryAddr == "" {
		return false
	}
	if !f1.Alive || f1.Role != "follower" || f1.PrimaryID != "primary" {
		return false
	}
	pg, fg := p.Datacenter[fleetDC], f1.Datacenter[fleetDC]
	if pg == 0 || fg != pg {
		return false
	}
	var dcs struct {
		Datacenters []string `json:"datacenters"`
		BinaryAddr  string   `json:"binary_addr"`
	}
	if getJSON("http://"+f.routerHTTP+"/v1/datacenters", &dcs) != nil {
		return false
	}
	return len(dcs.Datacenters) == 1 && dcs.Datacenters[0] == fleetDC && dcs.BinaryAddr != ""
}

// cpu is the summed user+system CPU of the three daemons.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range f.daemons() {
		c, err := procCPU(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		total += c
	}
	return total, nil
}

// cpuWindows is the fleet's CPU per successful request in consecutive
// windows of an open loop.
type cpuWindows struct {
	perOpUS []float64
	err     error
}

// sampleCPU reads the fleet's CPU and b's success count at the boundaries
// of the whole windows in an open loop of the given length from start.
func (f *fleet) sampleCPU(b *books, start time.Time, seconds float64) cpuWindows {
	var out cpuWindows
	n := max(1, int(seconds/window.Seconds()))
	time.Sleep(time.Until(start))
	prevCPU, err := f.cpu()
	prevOK := b.succeeded.Load()
	for k := 1; k <= n && err == nil; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
		var cpu time.Duration
		if cpu, err = f.cpu(); err == nil {
			ok := b.succeeded.Load()
			out.perOpUS = append(out.perOpUS, float64((cpu-prevCPU).Microseconds())/float64(max(1, ok-prevOK)))
			prevCPU, prevOK = cpu, ok
		}
	}
	out.err = err
	return out
}

// hwmMB is the summed peak resident set of the three daemons in MiB.
func (f *fleet) hwmMB() (float64, error) {
	var kb int64
	for _, d := range f.daemons() {
		v, err := procHWM(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

var ctlClient = &http.Client{Timeout: 10 * time.Second}

// getJSON fetches url off the measured path and decodes a 200 into v.
func getJSON(url string, v any) error {
	resp, err := ctlClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// quiesce waits, up to limit, until the daemons are idle: less than 10% of
// one CPU over a 100 ms interval. Set-up ends there, so the collection
// debt of the preload is not charged to the first measured requests.
func (f *fleet) quiesce(limit time.Duration) error {
	const interval = 100 * time.Millisecond
	deadline := time.Now().Add(limit)
	prev, err := f.cpu()
	if err != nil {
		return err
	}
	for time.Now().Before(deadline) {
		time.Sleep(interval)
		cur, err := f.cpu()
		if err != nil {
			return err
		}
		if cur-prev < interval/10 {
			return nil
		}
		prev = cur
	}
	return nil
}

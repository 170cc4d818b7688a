package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"slaplace/internal/rng"
)

// workload fixes one traffic mix. Its numbers are the ones named in
// BENCHMARK.json: a change to any of them is a new benchmark.
type workload struct {
	name string
	// limit is the latency limit on plan_tail_ms and each request's
	// within-limit test.
	limit time.Duration
	// rate is the open-loop aggregate rate in requests per second; 0
	// means closed loop.
	rate float64
	// ladder makes the traced run search the highest sustainable
	// offered rate (fleet.max_rate_rps) after its untraced half.
	ladder bool
	// setup builds tenants, starts the fleet and warms the sessions.
	setup func(o *options, w *workload, rec *Recorder) (*env, error)
}

// The rates and limits were set by hand and are kept fixed; README.md
// ("Rates and limits") records where they sit on a 2-vCPU VM.
//   - steady-fleet, 400/s: a 20 s run holds 8000 requests, so the tail
//     rule reads p99 with 80 samples beyond it (10000 would move it to
//     p99.9 with 10). That is 18% of the 2263/s fleet.max_rate_rps
//     measured there, about 17% of its two cores.
//   - durable-churn, 60/s: 1200 requests, p99 with 12 beyond; 25% of
//     its 240/s max rate, measured with the same ladder.
//   - The limits are round numbers: steady-fleet's 10 ms is 1.2x to 2x
//     its p99 at 400/s, durable-churn's 50 ms about its p99 at 60/s, and
//     cold-recovery's 5 s 2.6x to 3.8x its slowest request, a
//     2000x20000 full plan.
var workloads = []*workload{
	{name: "steady-fleet", limit: 10 * time.Millisecond, rate: 400, ladder: true, setup: setupSteady},
	{name: "cold-recovery", limit: 5 * time.Second, setup: setupRecovery},
	{name: "durable-churn", limit: 50 * time.Millisecond, rate: 60, setup: setupChurn},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Recovery bursts: a fixed composition per burst (the seed shuffles
// the order and picks each tenant's wave victims), so every burst — and
// therefore every run — holds the same size mix.
var recoveryMix = []struct {
	sh    shape
	count int
}{
	{shape{200, 2000, true}, 8},
	{shape{500, 5000, true}, 2},
	{shape{1000, 10000, true}, 1},
	{shape{2000, 20000, true}, 1},
}

const (
	recoveryVariants = 3 // distinct post-wave snapshots per shape
	// 48 to 96 samples: the tail is always p75, the middle of the
	// 500x5000 group, whatever the host's speed.
	minRecoveryBursts = 4
	maxRecoveryBursts = 8
)

// env is one set-up fleet with its tenants.
type env struct {
	w       *workload
	fleet   *fleet
	gen     *generator
	tenants []*tenant
	stream  *stream
	// warm holds the session-opening requests; warmWall is how long the
	// whole fleet took to hold a first plan.
	warm     []*request
	warmWall time.Duration
	// bursts are the recovery workload's pre-generated bursts.
	bursts   [][]*request
	stateDir string
}

// close stops the generator and the fleet.
func (e *env) close() {
	if e.gen != nil {
		e.gen.close()
	}
	if e.fleet != nil {
		e.fleet.close()
	}
}

// options are the command-line settings of one invocation.
type options struct {
	seed    uint64
	seconds float64
	outDir  string
	ids     atomic.Uint64
	setups  atomic.Int64
}

func (o *options) newStateDir() (string, error) {
	dir := filepath.Join(o.outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), o.setups.Add(1)))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func shapeLabels(ts []*tenant) map[string]string {
	m := make(map[string]string, len(ts))
	for _, t := range ts {
		m[t.id] = t.shape.String()
	}
	return m
}

// startEnv starts the fleet and generator for a tenant set. With
// warm set it then opens every tenant's session with its first
// request, two at a time, in the stream's order.
func startEnv(o *options, w *workload, rec *Recorder, tiers [][]*tenant, replicas int, durable, warm bool) (*env, error) {
	e := &env{w: w}
	for _, tr := range tiers {
		e.tenants = append(e.tenants, tr...)
	}
	e.stream = &stream{order: interleave(tiers)}
	cfg := fleetConfig{replicas: replicas, rec: rec, shapes: shapeLabels(e.tenants)}
	if durable {
		dir, err := o.newStateDir()
		if err != nil {
			return nil, err
		}
		e.stateDir, cfg.stateDir = dir, dir
	}
	f, err := startFleet(cfg)
	if err != nil {
		return nil, err
	}
	e.fleet = f
	e.gen = newGenerator(f.coURL, rec, &o.ids)
	if !warm {
		return e, nil
	}
	for _, t := range e.stream.order {
		r, err := t.take()
		if err != nil {
			e.close()
			return nil, err
		}
		e.warm = append(e.warm, r)
	}
	// The burst starts on a collected heap, as a measured phase does, so
	// its wall time does not depend on where the set-up's garbage left
	// the collector.
	runtime.GC()
	e.warmWall = e.gen.closedLoop(context.Background(), e.warm)
	for _, r := range e.warm {
		if !r.ok() {
			e.close()
			return nil, fmt.Errorf("warm-up for %s: status %d: %v: %s", r.t.id, r.status, r.err, r.resp)
		}
	}
	return e, nil
}

// setupSteady: 1000 crowded steady tenants in an 850/140/10 mix of
// 10/30, 50/300 and 200/2000, behind the coordinator on 3 stateless
// replicas.
func setupSteady(o *options, w *workload, rec *Recorder) (*env, error) {
	src := rng.NewSource(o.seed)
	var tiers [][]*tenant
	for ti, tr := range []struct {
		n  int
		sh shape
	}{{850, shape{10, 30, true}}, {140, shape{50, 300, true}}, {10, shape{200, 2000, true}}} {
		var ts []*tenant
		for i := 0; i < tr.n; i++ {
			id := fmt.Sprintf("s%d-%04d", ti, i)
			ts = append(ts, steadyTenant(id, tr.sh, src.Stream("tenant/"+id)))
		}
		tiers = append(tiers, ts)
	}
	for ti, ts := range tiers {
		pickSample(ts, 3, src.Streamf("sample/%d", ti))
	}
	return startEnv(o, w, rec, tiers, 3, false, true)
}

// setupChurn: 100 half-loaded 50/300 tenants and 4 crowded 200/2000
// ones on 3 durable replicas sharing one state dir; half the tenants
// send a Holt forecast hint.
func setupChurn(o *options, w *workload, rec *Recorder) (*env, error) {
	src := rng.NewSource(o.seed)
	var tiers [][]*tenant
	idx := 0
	for ti, tr := range []struct {
		n  int
		sh shape
	}{{100, shape{50, 300, false}}, {4, shape{200, 2000, true}}} {
		var ts []*tenant
		for i := 0; i < tr.n; i++ {
			id := fmt.Sprintf("c%d-%03d", ti, i)
			t, err := churnTenant(id, tr.sh, idx, o.seed, i%2 == 0, src.Stream("tenant/"+id))
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
			idx++
		}
		tiers = append(tiers, ts)
	}
	// Two hinted and two reactive small tenants, and one large one.
	var hinted, reactive []*tenant
	for _, t := range tiers[0] {
		if t.hinted {
			hinted = append(hinted, t)
		} else {
			reactive = append(reactive, t)
		}
	}
	pickSample(hinted, 2, src.Stream("sample/hinted"))
	pickSample(reactive, 2, src.Stream("sample/reactive"))
	pickSample(tiers[1], 1, src.Stream("sample/large"))
	return startEnv(o, w, rec, tiers, 3, true, true)
}

// setupRecovery: one survivor replica behind the coordinator, and
// pre-encoded bursts of fresh crowded sessions shown right after a
// departure wave.
func setupRecovery(o *options, w *workload, rec *Recorder) (*env, error) {
	src := rng.NewSource(o.seed)
	bodies := make([][][]byte, len(recoveryMix))
	for mi, m := range recoveryMix {
		for v := 0; v < recoveryVariants; v++ {
			st, err := recoveryVariant(m.sh, o.seed*7919+uint64(mi*recoveryVariants+v))
			if err != nil {
				return nil, err
			}
			b, err := recoveryBody(st)
			if err != nil {
				return nil, err
			}
			bodies[mi] = append(bodies[mi], b)
		}
	}
	pick := src.Stream("variants")
	var all []*tenant
	var bursts [][]*tenant
	for b := 0; b < maxRecoveryBursts; b++ {
		var burst []*tenant
		for mi, m := range recoveryMix {
			for k := 0; k < m.count; k++ {
				id := fmt.Sprintf("r%02d-%d-%d", b, mi, k)
				burst = append(burst, recoveryTenant(id, m.sh, bodies[mi][pick.Intn(recoveryVariants)]))
			}
		}
		pick.Shuffle(len(burst), func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
		bursts = append(bursts, burst)
		all = append(all, burst...)
	}
	pickSample(all, 2, src.Stream("sample"))
	e, err := startEnv(o, w, rec, [][]*tenant{all}, 1, false, false)
	if err != nil {
		return nil, err
	}
	for _, burst := range bursts {
		var reqs []*request
		for _, t := range burst {
			r, err := t.take()
			if err != nil {
				e.close()
				return nil, err
			}
			reqs = append(reqs, r)
		}
		e.bursts = append(e.bursts, reqs)
	}
	return e, nil
}

// usage is the process's resource use at one instant.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
	}
}

// window is one measured phase's resource accounting.
type window struct {
	wall, cpu time.Duration
	alloc     uint64
	peakHeap  uint64
}

func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.alloc += o.alloc
	w.peakHeap = max(w.peakHeap, o.peakHeap)
}

// measure runs fn as a measured phase: a collection first so the
// phase does not inherit set-up garbage, then CPU, allocation and a
// 10ms heap sampler around fn.
func measure(fn func()) window {
	runtime.GC()
	stop := make(chan struct{})
	var peak atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak.Load() {
				peak.Store(v)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	u0 := readUsage()
	fn()
	u1 := readUsage()
	close(stop)
	wg.Wait()
	return window{
		wall:     u1.at.Sub(u0.at),
		cpu:      u1.cpu - u0.cpu,
		alloc:    u1.alloc - u0.alloc,
		peakHeap: peak.Load(),
	}
}

// phase is the outcome of one workload's measured traffic.
type phase struct {
	reqs []*request
	win  window
	// recovery is the wall time until every tenant of each burst held
	// a plan (recovery bursts) or of the warm-up burst (other workloads).
	recovery []time.Duration
	restart  time.Duration // durable-churn's drain-and-restart wall time
	restored int
	ladder   []string // the max-rate probes, for the report
}

// runMain drives the workload's main measured traffic for d.
func runMain(e *env, o *options, d time.Duration, minBursts, maxBursts int) (*phase, error) {
	ph := &phase{}
	ctx := context.Background()
	if e.w.rate == 0 {
		for b := 0; b < len(e.bursts) && b < maxBursts; b++ {
			if b >= minBursts && ph.win.wall >= d {
				break
			}
			if b > 0 {
				// The survivor restarts between bursts, so each burst lands
				// on an empty replica and the previous burst's sessions are
				// freed.
				for _, n := range e.fleet.replicas {
					n.reset()
				}
			}
			reqs := e.bursts[b]
			var wall time.Duration
			ph.win.add(measure(func() { wall = e.gen.closedLoop(ctx, reqs) }))
			ph.recovery = append(ph.recovery, wall)
			ph.reqs = append(ph.reqs, reqs...)
		}
		return ph, nil
	}
	n := int(math.Round(e.w.rate * d.Seconds()))
	reqs, err := e.stream.take(n)
	if err != nil {
		return nil, err
	}
	ph.reqs = reqs
	var restartErr error
	ph.win = measure(func() {
		var wg sync.WaitGroup
		if e.stateDir != "" {
			// Midway, one replica drains, restarts on the same state dir
			// and scans it, while traffic continues. The drain starts just
			// after a readiness probe, so in every run the coordinator
			// keeps routing to the draining replica for one whole probe
			// interval, instead of for a random part of one.
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(d / 2)
				n := e.fleet.replicas[int(o.seed%uint64(len(e.fleet.replicas)))]
				n.awaitProbe(2 * time.Second)
				t0 := time.Now()
				rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				defer cancel()
				ph.restored, restartErr = n.restart(rctx)
				ph.restart = time.Since(t0)
			}()
		}
		e.gen.openLoop(ctx, reqs, e.w.rate, 5*time.Second)
		wg.Wait()
	})
	return ph, restartErr
}

// ladder finds fleet.max_rate_rps: the highest rung of a fixed geometric
// ladder of offered rates (steps of 2^(1/8), about 9%, around the
// workload's nominal rate) at which a short open-loop probe keeps its
// tail within the limit, fails nothing, and ends without a backlog
// beyond the limit. Rungs are bisected within a probe budget; a rung
// that fails is probed once more before it counts as failed, so one
// collection or scheduling hiccup does not end the climb.
func ladder(e *env, probe time.Duration, budget int) (float64, []*request, []string, error) {
	const lo, hi = -16, 40
	rate := func(k int) float64 { return e.w.rate * math.Pow(2, float64(k)/8) }
	var all []*request
	var log []string
	probes := 0
	try := func(k int) (bool, error) {
		reqs, err := e.stream.take(int(math.Round(rate(k) * probe.Seconds())))
		if err != nil {
			return false, err
		}
		runtime.GC()
		e.gen.openLoop(context.Background(), reqs, rate(k), time.Hour)
		probes++
		all = append(all, reqs...)
		lats := make([]float64, 0, len(reqs))
		for _, r := range reqs {
			if !r.ok() {
				return false, nil
			}
			lats = append(lats, float64(r.lat))
		}
		_, tail, _, ok := Tail(sortedCopy(lats))
		backlog := reqs[len(reqs)-1].queued()
		pass := ok && time.Duration(tail) <= e.w.limit && backlog <= e.w.limit
		log = append(log, fmt.Sprintf("%.0f/s tail %.1fms backlog %.1fms pass=%v", rate(k), tail/1e6, ms(backlog), pass))
		return pass, nil
	}
	pass, fail := lo-1, hi+1
	k := 0
	for probes < budget && fail-pass > 1 {
		ok, err := try(k)
		if err == nil && !ok && probes < budget {
			ok, err = try(k)
		}
		if err != nil {
			return 0, all, log, err
		}
		if ok {
			pass = k
		} else {
			fail = k
		}
		switch {
		case fail > hi:
			k = min(pass+8, hi)
		case pass < lo:
			k = max(fail-8, lo)
		default:
			k = (pass + fail) / 2
		}
	}
	if pass < lo {
		return 0, all, log, nil
	}
	return rate(pass), all, log, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetbench: "+format+"\n", args...)
}

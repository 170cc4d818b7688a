// Command fleetbench is slaplace's end-to-end benchmark. It drives plan
// requests from one load generator over loopback TCP into the
// replica.Coordinator handler that slaplace-proxy serves, with
// in-process serve.Server replicas behind it on 127.0.0.1 listeners,
// and reports end-to-end metrics, or with -trace 1 per-layer metrics
// measured from the benchmark's own wrappers around each layer.
//
// Usage (from the repository root):
//
//	bash fleetbench/run.sh --workload steady-fleet --seed 1 --seconds 20 --trace 0
//	bash fleetbench/run.sh --workload all --seed 1 --seconds 20
//
// Every metric is printed as "name = value unit" on its own line; the
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes every metric as "name = value unit", then the JSON line.
func (r *result) print(prefix string, last bool) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%s%s = %.6g %s\n", prefix, n, m.Value, m.Unit)
	}
	if last {
		out, _ := json.Marshal(r) // plain numbers and strings: cannot fail
		fmt.Println(string(out))
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "steady-fleet, cold-recovery, durable-churn, or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run (and the tracing overhead)")
		outDir  = flag.String("out", ".bench_build/fleetbench-run", "directory for state dirs and span files")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("bad -seconds or -trace")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	o := &options{seed: *seed, seconds: *seconds, outDir: *outDir}

	if *name == "all" {
		total := &result{Correct: true, Metrics: map[string]metric{}}
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				r, err := runWorkload(o, w, traced)
				if err != nil {
					logf("%s: %v", w.name, err)
					os.Exit(1)
				}
				r.print(w.name+"/", false)
				total.Correct = total.Correct && r.Correct
				total.Attempted += r.Attempted
				total.Failed += r.Failed
				for k, v := range r.Metrics {
					total.Metrics[w.name+"/"+k] = v
				}
			}
		}
		total.print("", true)
		return
	}
	w := findWorkload(*name)
	if w == nil {
		logf("unknown workload %q", *name)
		os.Exit(2)
	}
	r, err := runWorkload(o, w, *trace == 1)
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	r.print("", true)
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, and so is recovery_s on the open-loop workloads. Each
// set-up, and the warm-up burst inside it, takes about half a second,
// short enough for one stall of the host to move a single reading.
const setupRuns = 5

// runWorkload runs one workload untraced (end-to-end metrics) or
// traced (per-layer metrics plus the tracing overhead).
func runWorkload(o *options, w *workload, traced bool) (*result, error) {
	if traced {
		return runTraced(o, w)
	}
	var setups, warms []time.Duration
	var e *env
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
			os.RemoveAll(e.stateDir)
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(o, w, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		warms = append(warms, e.warmWall)
	}
	defer os.RemoveAll(e.stateDir)

	ph, err := runMain(e, o, time.Duration(o.seconds*float64(time.Second)), minRecoveryBursts, maxRecoveryBursts)
	if err != nil {
		e.close()
		return nil, err
	}
	if w.rate > 0 {
		ph.recovery = warms // the fleet's cold start, once per set-up
	}
	end := finish(e)

	c := &checker{}
	c.checkResponses(e.warm)
	c.checkResponses(ph.reqs)
	s := newSamples(nil)
	for _, t := range e.tenants {
		if t.sample {
			if err := c.replayTenant(t, s, e.stateDir != ""); err != nil {
				// The session refused what the daemon accepted.
				c.failures = append(c.failures, fmt.Sprintf("replay %s: %v", t.id, err))
			}
		}
	}
	c.checkSignature(w, ph, end)

	r := &result{Metrics: map[string]metric{}}
	lat := e2e(w, ph, r)
	r.set("setup_s", "s", MedianDur(setups).Seconds())
	r.Attempted = len(ph.reqs)
	r.Failed = countFailed(ph.reqs)
	r.Correct = len(c.failures) == 0
	report(w, ph, c, lat, r.Failed, r.Attempted)
	return r, nil
}

// finish observes the fleet's end state, then stops it.
func finish(e *env) *layerEnd {
	end := e.fleet.observe(e.stateDir)
	e.close()
	return end
}

// ladderProbes is the max-rate search's probe budget.
const ladderProbes = 8

// lateness is the median and p99 of how late the generator itself sent
// the phase's requests, after their due time and a free worker.
func lateness(reqs []*request) (p50, p99 time.Duration) {
	var late []float64
	for _, r := range reqs {
		if r.ok() {
			late = append(late, float64(r.late))
		}
	}
	if len(late) == 0 {
		return 0, 0
	}
	late = sortedCopy(late)
	return time.Duration(Median(late)), time.Duration(late[rankOf(99, len(late))])
}

func countFailed(reqs []*request) int {
	n := 0
	for _, r := range reqs {
		if !r.good() {
			n++
		}
	}
	return n
}

// latency summarizes a phase's per-request latencies; failures count
// as infinitely late.
type latency struct {
	p50, tail, p float64 // ns, ns, percentile
	beyond, n    int
}

func summarize(reqs []*request) latency {
	xs := make([]float64, len(reqs))
	for i, r := range reqs {
		xs[i] = math.Inf(1)
		if r.good() {
			xs[i] = float64(r.lat)
		}
	}
	sorted := sortedCopy(xs)
	l := latency{n: len(xs), p50: Median(sorted)}
	l.p, l.tail, l.beyond, _ = Tail(sorted)
	return l
}

// e2e sets the end-to-end metrics of a phase (all but max_rate_rps
// and setup_s) and returns its latency summary.
func e2e(w *workload, ph *phase, r *result) latency {
	l := summarize(ph.reqs)
	done, within := 0, 0
	for _, q := range ph.reqs {
		if q.good() {
			done++
			if q.lat <= w.limit {
				within++
			}
		}
	}
	perPlan := func(v float64) float64 { return v / float64(max(done, 1)) }
	r.set("plan_p50_ms", "ms", l.p50/1e6)
	r.set("plan_tail_ms", "ms", l.tail/1e6)
	r.set("within_limit_share", "ratio", float64(within)/float64(max(len(ph.reqs), 1)))
	r.set("throughput_rps", "1/s", float64(done)/ph.win.wall.Seconds())
	r.set("cpu_ms_per_plan", "ms", perPlan(ms(ph.win.cpu)))
	r.set("alloc_kb_per_plan", "KiB", perPlan(float64(ph.win.alloc)/1024))
	r.set("peak_heap_mb", "MiB", float64(ph.win.peakHeap)/(1<<20))
	r.set("recovery_s", "s", MedianDur(ph.recovery).Seconds())
	return l
}

// report prints the run's checks and the numbers the metric lines
// leave implicit: the tail's percentile and sample count, the failure
// share, the generator's own lateness, and any check failures.
func report(w *workload, ph *phase, c *checker, l latency, failed, attempted int) {
	fmt.Printf("# workload %s: limit %v, %d requests in the measured phase\n", w.name, w.limit, len(ph.reqs))
	fmt.Printf("# plan_tail_ms is p%g with %d samples beyond it (of %d)\n", l.p, l.beyond, l.n)
	fmt.Printf("# failed_share = %.6g (%d of %d attempted)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	if w.rate > 0 {
		p50, p99 := lateness(ph.reqs)
		fmt.Printf("# generator lateness p50 %.3f ms, p99 %.3f ms\n", ms(p50), ms(p99))
	}
	kinds := map[string]int{}
	for _, r := range ph.reqs {
		switch {
		case r.err != nil:
			kinds[r.err.Error()]++
		case !r.ok():
			body := string(r.resp)
			if len(body) > 120 {
				body = body[:120]
			}
			kinds[fmt.Sprintf("HTTP %d %s", r.status, strings.TrimSpace(body))]++
		}
	}
	for k, n := range kinds {
		fmt.Printf("# failure x%d: %s\n", n, k)
	}
	for _, l := range ph.ladder {
		fmt.Printf("# max-rate ladder probe: %s\n", l)
	}
	if ph.restart > 0 {
		fmt.Printf("# replica restart took %v and restored %d sessions from the state dir\n", ph.restart, ph.restored)
	}
	for i, f := range c.failures {
		if i == 20 {
			fmt.Printf("# ... %d more check failures\n", len(c.failures)-20)
			break
		}
		fmt.Printf("# CHECK FAILED: %s\n", f)
	}
}

// runTraced measures the workload twice on fresh fleets, each for half
// the run: untraced, then traced. The per-layer metrics come from the
// traced half; the tracing overhead is the difference of the halves.
func runTraced(o *options, w *workload) (*result, error) {
	half := time.Duration(o.seconds * float64(time.Second) / 2)
	var maxRate float64
	var ladderReqs []*request
	var ladderLog []string
	run := func(rec *Recorder) (*env, *phase, *checker, *layerEnd, error) {
		e, err := w.setup(o, w, rec)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		defer os.RemoveAll(e.stateDir)
		ph, err := runMain(e, o, half, 3, maxRecoveryBursts)
		if err == nil && rec == nil && w.ladder {
			probe := time.Duration(o.seconds * float64(time.Second) / 20)
			maxRate, ladderReqs, ladderLog, err = ladder(e, probe, ladderProbes)
		}
		if err != nil {
			e.close()
			return nil, nil, nil, nil, err
		}
		end := finish(e)
		c := &checker{}
		c.checkResponses(e.warm)
		c.checkResponses(ph.reqs)
		c.checkResponses(ladderReqs)
		return e, ph, c, end, nil
	}
	_, phA, cA, _, err := run(nil)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder()
	e, phB, c, end, err := run(rec)
	if err != nil {
		return nil, err
	}
	c.failures = append(cA.failures, c.failures...)
	s := newSamples(rec)
	for _, t := range e.tenants {
		if t.sample {
			if err := c.replayTenant(t, s, e.stateDir != ""); err != nil {
				// The session refused what the daemon accepted.
				c.failures = append(c.failures, fmt.Sprintf("replay %s: %v", t.id, err))
			}
		}
	}
	c.checkSignature(w, phB, end)

	r := &result{Metrics: map[string]metric{}}
	a, b := &result{Metrics: map[string]metric{}}, &result{Metrics: map[string]metric{}}
	e2e(w, phA, a)
	lat := e2e(w, phB, b)
	r.set("trace.overhead_p50_ms", "ms", b.Metrics["plan_p50_ms"].Value-a.Metrics["plan_p50_ms"].Value)
	r.set("trace.overhead_cpu_ms_per_plan", "ms", b.Metrics["cpu_ms_per_plan"].Value-a.Metrics["cpu_ms_per_plan"].Value)
	r.set("fleet.max_rate_rps", "1/s", maxRate)
	layerMetrics(r, rec, phB, end, s)
	r.Attempted = len(phA.reqs) + len(phB.reqs) + len(ladderReqs)
	r.Failed = countFailed(phA.reqs) + countFailed(phB.reqs) + countFailed(ladderReqs)
	r.Correct = len(c.failures) == 0

	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := rec.WriteFile(path); err != nil {
		return nil, err
	}
	phB.ladder = ladderLog
	report(w, phB, c, lat, countFailed(phB.reqs), len(phB.reqs))
	fmt.Printf("# spans written to %s\n", path)
	return r, nil
}

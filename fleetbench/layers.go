package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// layerEnd is what the fleet looks like when a measured phase ends.
type layerEnd struct {
	sessions   int
	stateBytes int64
	restores   int64
}

// observe reads the fleet's session count, state-dir size and restore
// count, before it is shut down.
func (f *fleet) observe(stateDir string) *layerEnd {
	end := &layerEnd{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n, err := f.sessions(ctx); err == nil {
		end.sessions = n
	} else {
		logf("session count: %v", err)
	}
	for _, n := range f.replicas {
		end.restores += n.restores.Load()
	}
	if stateDir != "" {
		_ = filepath.WalkDir(stateDir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if info, err := d.Info(); err == nil {
					end.stateBytes += info.Size()
				}
			}
			return nil // a file renamed away mid-walk is simply not counted
		})
	}
	return end
}

// maxLateness bounds the generator's own p99 lateness in a valid
// open-loop run.
const maxLateness = 25 * time.Millisecond

// checkSignature checks the workload's tier signature over the
// measured phase's responses, and for durable-churn that the state dir
// filled and at least one session was restored from a checkpoint.
func (c *checker) checkSignature(w *workload, ph *phase, end *layerEnd) {
	tiers := map[string]int{}
	for _, r := range ph.reqs {
		if m, ok := c.modes[r]; ok {
			tiers[m]++
		}
	}
	bad := func(format string, args ...any) {
		c.failures = append(c.failures, "tier signature: "+fmt.Sprintf(format, args...))
	}
	if w.rate > 0 {
		// An open-loop run is valid only if the generator kept its own
		// schedule: its own lateness, not the system's, must stay small.
		if _, p99 := lateness(ph.reqs); p99 > maxLateness {
			c.failures = append(c.failures, fmt.Sprintf("generator fell behind: p99 lateness %v", p99))
		}
	}
	switch w.name {
	case "steady-fleet":
		if tiers["full"] != 0 {
			bad("steady-fleet planned %d requests on the full tier", tiers["full"])
		}
	case "cold-recovery":
		if tiers["incremental"]+tiers["replayed"] != 0 {
			bad("cold-recovery planned off the full tier: %v", tiers)
		}
	case "durable-churn":
		if tiers["full"] == 0 || tiers["incremental"] == 0 {
			bad("durable-churn needs both full and carry-over plans: %v", tiers)
		}
		if end != nil && (end.stateBytes == 0 || end.restores < 1) {
			bad("durable-churn state dir %d bytes, %d restores", end.stateBytes, end.restores)
		}
	}
}

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them. A traced run reports all of them; one a
// workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"replica.client_wire_ms", "ms"},
	{"replica.forward_self_ms", "ms"},
	{"replica.backend_wire_ms", "ms"},
	{"replica.attempts_per_req", "ratio"},
	{"replica.rehomes", "count"},
	{"serve.handle_ms", "ms"},
	{"serve.handle_tail_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.busy_share", "ratio"},
	{"serve.non200.400", "count"},
	{"serve.non200.404", "count"},
	{"serve.non200.409", "count"},
	{"serve.non200.421", "count"},
	{"serve.non200.429", "count"},
	{"serve.non200.500", "count"},
	{"serve.non200.503", "count"},
	{"serve.sessions", "count"},
	{"serve.state_mb", "MiB"},
	{"serve.restores", "count"},
	{"core.plan_full_ms", "ms"},
	{"core.plan_carry_ms", "ms"},
	{"core.plan_replay_ms", "ms"},
	{"core.plan_full_ms.200x2000", "ms"},
	{"core.plan_full_ms.500x5000", "ms"},
	{"core.plan_full_ms.1000x10000", "ms"},
	{"core.plan_full_ms.2000x20000", "ms"},
	{"core.full_growth", "ratio"},
	{"core.plan_busy_share", "ratio"},
	{"core.tier_full", "count"},
	{"core.tier_carry", "count"},
	{"core.tier_replay", "count"},
	{"api.decode_json_ms", "ms"},
	{"api.decode_binary_ms", "ms"},
	{"api.convert_in_ms", "ms"},
	{"api.apply_delta_ms", "ms"},
	{"api.convert_out_ms", "ms"},
	{"api.diff_ms", "ms"},
	{"api.encode_ms", "ms"},
	{"api.req_kb", "KiB"},
	{"api.resp_kb", "KiB"},
	{"api.decode_alloc_kb", "KiB"},
	{"api.convert_out_alloc_kb", "KiB"},
	{"api.checkpoint_encode_ms", "ms"},
	{"api.checkpoint_kb", "KiB"},
	{"control.propose_ms", "ms"},
	{"control.self_ms", "ms"},
	{"control.export_ms", "ms"},
	{"control.restore_ms", "ms"},
	{"forecast.predict_us", "us"},
	{"fleet.max_rate_rps", "1/s"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_cpu_ms_per_plan", "ms"},
}

// layerMetrics sets every per-layer metric from the traced phase's
// spans, the fleet's end state and the replay samples. Times are means
// per call unless the name says tail; counts are totals over the phase.
func layerMetrics(r *result, rec *Recorder, ph *phase, end *layerEnd, s *samples) {
	v := map[string]float64{}

	inPhase := make(map[uint64]bool, len(ph.reqs))
	for _, q := range ph.reqs {
		inPhase[q.id] = true
	}
	var spans []Span
	for _, sp := range rec.Spans() {
		if inPhase[sp.Req] && !strings.HasPrefix(sp.Name, "replay.") {
			spans = append(spans, sp)
		}
	}
	self := SelfTimes(spans)
	group := map[string][]Span{}
	for _, sp := range spans {
		group[sp.Name] = append(group[sp.Name], sp)
	}
	meanOf := func(ss []Span, f func(Span) time.Duration) float64 {
		xs := make([]float64, 0, len(ss))
		for _, sp := range ss {
			xs = append(xs, ms(f(sp)))
		}
		return Mean(xs)
	}
	selfOf := func(sp Span) time.Duration { return self[sp.ID] }
	durOf := func(sp Span) time.Duration { return sp.Dur() }

	v["replica.client_wire_ms"] = meanOf(group[spanClient], selfOf)
	v["replica.forward_self_ms"] = meanOf(group[spanForward], selfOf)
	v["replica.backend_wire_ms"] = meanOf(group[spanAttempt], selfOf)
	v["replica.attempts_per_req"] = float64(len(group[spanAttempt])) / float64(max(len(group[spanForward]), 1))
	for _, sp := range group[spanAttempt] {
		switch sp.Tag {
		case "404", "421", "503", "refused":
			v["replica.rehomes"]++
		}
	}

	cpus := float64(runtime.GOMAXPROCS(0))
	wall := ph.win.wall.Seconds() * 1e3
	handles := group[spanHandle]
	v["serve.handle_ms"] = meanOf(handles, durOf)
	hd := make([]float64, len(handles))
	var busy float64
	for i, sp := range handles {
		hd[i] = ms(sp.Dur())
		busy += hd[i]
		if sp.Tag != "200" {
			v["serve.non200."+sp.Tag]++
		}
	}
	_, v["serve.handle_tail_ms"], _, _ = Tail(sortedCopy(hd))
	v["serve.self_ms"] = meanOf(handles, selfOf)
	v["serve.busy_share"] = busy / (wall * cpus)
	v["serve.sessions"] = float64(end.sessions)
	v["serve.state_mb"] = float64(end.stateBytes) / (1 << 20)
	v["serve.restores"] = float64(end.restores)

	byTier := map[string][]Span{}
	byShape := map[string][]Span{}
	var planBusy float64
	for _, sp := range group[spanPlan] {
		tier, shape, _ := strings.Cut(sp.Tag, "/")
		if sp.Parent == 0 || tier == "restore" {
			continue
		}
		byTier[tier] = append(byTier[tier], sp)
		if tier == "full" {
			byShape[shape] = append(byShape[shape], sp)
		}
		planBusy += ms(sp.Dur())
	}
	v["core.plan_full_ms"] = meanOf(byTier["full"], durOf)
	v["core.plan_carry_ms"] = meanOf(byTier["incremental"], durOf)
	v["core.plan_replay_ms"] = meanOf(byTier["replayed"], durOf)
	for _, sh := range []string{"200x2000", "500x5000", "1000x10000", "2000x20000"} {
		v["core.plan_full_ms."+sh] = meanOf(byShape[sh], durOf)
	}
	if base := v["core.plan_full_ms.500x5000"]; base > 0 {
		v["core.full_growth"] = v["core.plan_full_ms.2000x20000"] / base
	}
	v["core.plan_busy_share"] = planBusy / (wall * cpus)
	v["core.tier_full"] = float64(len(byTier["full"]))
	v["core.tier_carry"] = float64(len(byTier["incremental"]))
	v["core.tier_replay"] = float64(len(byTier["replayed"]))

	for name, xs := range s.m {
		v[name] = Mean(xs)
	}
	for _, m := range perLayer {
		if _, set := r.Metrics[m.name]; !set {
			r.set(m.name, m.unit, v[m.name])
		}
	}
}

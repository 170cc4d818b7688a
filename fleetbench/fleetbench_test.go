package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slaplace/internal/core"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 9, ok: false}, // even the median lacks ten beyond it
		{n: 21, p: 50, beyond: 10, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 199, p: 90, beyond: 19, ok: true}, // p95 would leave 9
		{n: 200, p: 95, beyond: 10, ok: true},
		{n: 999, p: 95, beyond: 49, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 12000, p: 99.9, beyond: 12, ok: true},
	}
	for _, c := range cases {
		p, v, beyond, ok := Tail(seq(c.n))
		if ok != c.ok || (ok && (p != c.p || beyond != c.beyond)) {
			t.Errorf("n=%d: got p%g beyond %d ok=%v, want p%g beyond %d ok=%v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
			continue
		}
		if !ok {
			continue
		}
		// The value has exactly `beyond` samples above it, and at least
		// minBeyond of them.
		if got := c.n - int(v); got != beyond || got < minBeyond {
			t.Errorf("n=%d: value %g has %d samples above, reported %d", c.n, v, got, beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(10)},
		// Overlapping children count once; the part of a child outside
		// its parent is ignored.
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(2), End: ms(5)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)},
		// A grandchild is the child's business, not the root's.
		{ID: 5, Parent: 3, Name: "d", Start: ms(3), End: ms(4)},
	}
	self := SelfTimes(spans)
	want := map[uint64]time.Duration{1: ms(4), 2: ms(2), 3: ms(2), 4: ms(4), 5: ms(1)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

// TestDueTimeLatency injects a stall into the server and checks that
// the open-loop generator charges the wait to the requests that were
// due during it, measuring from their due time rather than from when
// they could finally be sent.
func TestDueTimeLatency(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var n atomic.Int64
	var stallEnd atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == 5 {
			time.Sleep(stall) // every request queues behind this one
			stallEnd.Store(time.Now().UnixNano())
		}
		mu.Unlock()
	}))
	defer srv.Close()

	var ids atomic.Uint64
	g := newGenerator(srv.URL, nil, &ids)
	defer g.close()
	const rate = 100 // one due every 10ms
	reqs := make([]*request, 40)
	for i := range reqs {
		reqs[i] = &request{t: newTenant(fmt.Sprint(i), shape{}), body: []byte("{}")}
	}
	g.openLoop(context.Background(), reqs, rate, time.Second)

	end := time.Unix(0, stallEnd.Load())
	charged := 0
	for i, r := range reqs {
		if !r.ok() {
			t.Fatalf("request %d failed: %v %d", i, r.err, r.status)
		}
		if want := time.Duration(i) * time.Second / rate; r.due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.due, want)
		}
		dueAt := r.end.Add(-r.lat)
		if dueAt.Before(end) && r.end.After(end) {
			// Due while the server stalled: its latency must cover the
			// whole wait from its due time to the stall's end.
			if min := end.Sub(dueAt); r.lat < min {
				t.Errorf("request %d: latency %v, but it was due %v before the stall ended", i, r.lat, min)
			}
			if i > 5 && r.queued() <= 0 {
				t.Errorf("request %d due during the stall was never queued", i)
			}
			charged++
		}
	}
	// Stalled for 200ms at 100 req/s: about twenty requests fell due.
	if charged < 15 {
		t.Errorf("only %d requests were charged the stall", charged)
	}
}

// TestTierSignatures runs each workload briefly and checks the tiers
// its measured requests took: steady-fleet never plans on the full
// tier, cold-recovery only on it, and durable-churn on both full and
// carry-over, with a filled state dir and at least one restore.
func TestTierSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three fleets")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := &options{seed: 3, seconds: 2, outDir: t.TempDir()}
			e, err := w.setup(o, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			ph, err := runMain(e, o, 2*time.Second, 1, 1)
			if err != nil {
				e.close()
				t.Fatal(err)
			}
			end := finish(e)
			c := &checker{}
			c.checkResponses(e.warm)
			c.checkResponses(ph.reqs)
			c.checkSignature(w, ph, end)
			for _, f := range c.failures {
				t.Error(f)
			}
			tiers := map[string]int{}
			for _, r := range ph.reqs {
				tiers[c.modes[r]]++
			}
			t.Logf("tiers %v, %d restores, state %d bytes", tiers, end.restores, end.stateBytes)
		})
	}
}

// TestRecoveryWaveDefeatsCarryOver shows that cold-recovery's tier
// signature can fail. The carry-over proofs read only the snapshot, so
// a fresh session shown a crowded steady snapshot plans it on the
// carry-over tier; only the departure wave's stranded jobs send the
// recovery variant of the same shape to the full tier.
func TestRecoveryWaveDefeatsCarryOver(t *testing.T) {
	sh := shape{200, 2000, true}
	c := core.New(core.DefaultConfig())
	c.Plan(sh.build("pre-wave"))
	if m := c.PlanStats().LastMode; m != core.PlanIncremental {
		t.Fatalf("fresh controller on the pre-wave snapshot: %v, want carry-over", m)
	}
	for v := uint64(0); v < recoveryVariants; v++ {
		st, err := recoveryVariant(sh, v)
		if err != nil {
			t.Fatal(err)
		}
		c := core.New(core.DefaultConfig())
		c.Plan(st)
		if m := c.PlanStats().LastMode; m != core.PlanFull {
			t.Errorf("variant %d after the wave: %v, want full", v, m)
		}
	}
}

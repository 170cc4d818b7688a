package main

import (
	"bytes"
	"fmt"
	"math"

	"slaplace/api"
	"slaplace/internal/chaos"
	"slaplace/internal/core"
	"slaplace/internal/rng"
	"slaplace/internal/workload/batch"
)

// tenant is one cluster the load generator plans for. Its requests are
// generated in order from the run's seed; seq 0 opens the session.
type tenant struct {
	id     string
	shape  shape
	hinted bool // sends a Holt forecast hint on its first request
	sample bool // replayed through control.Session after the run

	next  func(seq int) (*request, error)
	seq   int        // requests generated so far
	sent  []*request // every generated request, in order
	token chan struct{}
}

func newTenant(id string, sh shape) *tenant {
	return &tenant{id: id, shape: sh, token: make(chan struct{}, 1)}
}

func (t *tenant) acquire() { t.token <- struct{}{} }
func (t *tenant) release() { <-t.token }

// take generates the tenant's next request.
func (t *tenant) take() (*request, error) {
	r, err := t.next(t.seq)
	if err != nil {
		return nil, fmt.Errorf("tenant %s request %d: %w", t.id, t.seq, err)
	}
	r.t, r.seq = t, t.seq
	t.seq++
	t.sent = append(t.sent, r)
	return r, nil
}

// stream hands out the next requests of a fleet's tenants in a fixed
// proportional order, so every prefix of the stream holds the fleet's
// size mix.
type stream struct {
	order []*tenant
	pos   int
}

// take generates the next n requests of the stream.
func (s *stream) take(n int) ([]*request, error) {
	out := make([]*request, 0, n)
	for len(out) < n {
		r, err := s.order[s.pos%len(s.order)].take()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		s.pos++
	}
	return out, nil
}

// interleave orders tiers of tenants proportionally (largest deficit
// first), as the repo's many-tenant serve benchmark does.
func interleave(tiers [][]*tenant) []*tenant {
	total := 0
	for _, tr := range tiers {
		total += len(tr)
	}
	placed := make([]int, len(tiers))
	out := make([]*tenant, 0, total)
	for p := 0; p < total; p++ {
		best, bestDef := -1, math.Inf(-1)
		for ti, tr := range tiers {
			if placed[ti] >= len(tr) {
				continue
			}
			def := float64(len(tr))*float64(p+1)/float64(total) - float64(placed[ti])
			if def > bestDef {
				best, bestDef = ti, def
			}
		}
		out = append(out, tiers[best][placed[best]])
		placed[best]++
	}
	return out
}

// pickSample marks k tenants, chosen by the seed, for the replay check.
func pickSample(ts []*tenant, k int, s *rng.Stream) {
	for _, i := range s.Perm(len(ts))[:min(k, len(ts))] {
		ts[i].sample = true
	}
}

func encodeBinary(req *api.PlanRequest) ([]byte, error) {
	var buf bytes.Buffer
	err := api.EncodePlanRequestBinary(&buf, req)
	return buf.Bytes(), err
}

func encodeJSON(req *api.PlanRequest) ([]byte, error) {
	var buf bytes.Buffer
	err := api.EncodePlanRequest(&buf, req)
	return buf.Bytes(), err
}

// steadyTenant sends one binary full snapshot, then one binary
// SnapshotDelta per cycle with a drifted arrival rate and a delta
// reply. About one request in ten repeats its cycle's query unchanged
// (same clock, no patch), which the replay tier answers.
func steadyTenant(id string, sh shape, s *rng.Stream) *tenant {
	t := newTenant(id, sh)
	var app api.App
	var now float64
	t.next = func(seq int) (*request, error) {
		r := &request{binary: true, accept: api.ContentTypeBinary}
		var req *api.PlanRequest
		if seq == 0 {
			snap, err := api.FromCoreState(sh.build(id))
			if err != nil {
				return nil, err
			}
			app, now = snap.Apps[0], snap.Now
			req = &api.PlanRequest{ClusterID: id, Snapshot: snap, Reply: api.ReplyDelta}
		} else {
			d := &api.SnapshotDelta{BaseCycle: seq, Now: now}
			if !s.Bool(0.1) {
				app.Lambda = 60 + 10*s.Float64()
				d.UpsertApps = []api.App{app}
			}
			req = &api.PlanRequest{ClusterID: id, Delta: d, Reply: api.ReplyDelta}
		}
		var err error
		r.body, err = encodeBinary(req)
		return r, err
	}
	return t
}

// churnTenant sends a full JSON snapshot every cycle, its clock one
// minute on and its arrival rate drifted, perturbed by a seeded
// chaos.Engine running the crash, flap and wave families. Hinted
// tenants ask for Holt forecasting when their session is created.
func churnTenant(id string, sh shape, idx int, seed uint64, hinted bool, s *rng.Stream) (*tenant, error) {
	t := newTenant(id, sh)
	t.hinted = hinted
	count := max(1, sh.nodes/20)
	eng, err := chaos.New(chaos.Config{
		Seed:  seed*1_000_003 + uint64(idx),
		Crash: &chaos.Crash{Every: 5, Start: 1 + idx%5, DetectionLag: 1, RestoreAfter: 3},
		Flap:  &chaos.Flap{Nodes: 2, Period: 4, Start: 2 + idx%4},
		Wave:  &chaos.Wave{DepartAt: 3 + idx%6, Count: count, ReturnAt: 8 + idx%6},
	})
	if err != nil {
		return nil, err
	}
	t.next = func(seq int) (*request, error) {
		st := sh.build(id)
		st.Now += 60 * float64(seq)
		st.Apps[0].Lambda = 60 + 10*s.Float64()
		snap, err := api.FromCoreState(eng.Step(st, chaos.World{}))
		if err != nil {
			return nil, err
		}
		req := &api.PlanRequest{ClusterID: id, Snapshot: snap}
		if seq == 0 && hinted {
			req.Forecast = &api.ForecastConfig{Predictor: "holt"}
		}
		r := &request{}
		r.body, err = encodeJSON(req)
		return r, err
	}
	return t, nil
}

// recoveryVariant is one crowded snapshot of a shape as a recovering
// monitor reports it right after a departure wave took about 5% of
// the nodes: the departed nodes are gone and the jobs that ran on them
// are queued again. Stranded memory-fit jobs defeat the carry-over
// proof, so the first plan takes the full tier's victim walk.
func recoveryVariant(sh shape, seed uint64) (*core.State, error) {
	eng, err := chaos.New(chaos.Config{Seed: seed, Wave: &chaos.Wave{DepartAt: 1, Count: max(1, sh.nodes/20)}})
	if err != nil {
		return nil, err
	}
	st := eng.Step(sh.build(clusterPlaceholder), chaos.World{})
	live := make(map[string]bool, len(st.Nodes))
	for _, n := range st.Nodes {
		live[string(n.ID)] = true
	}
	for i := range st.Jobs {
		if j := &st.Jobs[i]; j.State == batch.Running && !live[string(j.Node)] {
			j.State, j.Node, j.Share = batch.Pending, "", 0
		}
	}
	return st, nil
}

// clusterPlaceholder stands in for the cluster ID in a pre-encoded
// recovery body; each tenant's body substitutes its own ID.
const clusterPlaceholder = "@cluster@"

// recoveryBody encodes a variant as a full-snapshot JSON request with
// the placeholder as cluster and app ID.
func recoveryBody(st *core.State) ([]byte, error) {
	snap, err := api.FromCoreState(st)
	if err != nil {
		return nil, err
	}
	return encodeJSON(&api.PlanRequest{ClusterID: clusterPlaceholder, Snapshot: snap})
}

// recoveryTenant opens a fresh session with its variant's body.
func recoveryTenant(id string, sh shape, body []byte) *tenant {
	t := newTenant(id, sh)
	t.next = func(seq int) (*request, error) {
		if seq > 0 {
			return nil, fmt.Errorf("recovery tenants send one request")
		}
		return &request{body: bytes.ReplaceAll(body, []byte(clusterPlaceholder), []byte(id))}, nil
	}
	return t
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"slaplace/api"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/forecast"
)

// Output checks, run after the measured phases. Every served response
// is decoded and must answer the right cluster and cycle; every full
// plan must pass core.CheckPlan against the snapshot sent, and its
// delta core.FreeingFirst. A seeded sample of tenants is replayed
// through a local control.Session, one goroutine, and every plan or
// delta they were served must match the replay byte for byte. The
// replay doubles as the api, control and forecast layers' timing.

// checker accumulates check outcomes.
type checker struct {
	failures []string
	modes    map[*request]string
}

func (c *checker) fail(r *request, format string, args ...any) {
	r.checkErr = fmt.Errorf(format, args...)
	c.failures = append(c.failures, fmt.Sprintf("%s seq %d (request %d): %v", r.t.id, r.seq, r.id, r.checkErr))
}

func decodeResponse(r *request) (*api.PlanResponse, error) {
	if r.accept == api.ContentTypeBinary {
		return api.DecodePlanResponseBinary(bytes.NewReader(r.resp))
	}
	return api.DecodePlanResponse(bytes.NewReader(r.resp))
}

func decodeRequest(r *request) (*api.PlanRequest, error) {
	if r.binary {
		return api.DecodePlanRequestBinary(bytes.NewReader(r.body))
	}
	return api.DecodePlanRequest(bytes.NewReader(r.body))
}

// checkResponses checks every successful request's response. Requests
// that fail a check are marked and count as failures.
func (c *checker) checkResponses(reqs []*request) {
	if c.modes == nil {
		c.modes = make(map[*request]string)
	}
	for _, r := range reqs {
		if !r.ok() {
			continue
		}
		resp, err := decodeResponse(r)
		if err != nil {
			c.fail(r, "response: %v", err)
			continue
		}
		// The session advances one cycle per accepted request. After a
		// failed request the daemon may or may not have planned it, so
		// only progress is required.
		want, exact := expectedCycle(r)
		if resp.ClusterID != r.t.id || (exact && resp.Cycle != want) || resp.Cycle < want {
			c.fail(r, "response for %s cycle %d, want %s cycle %d", resp.ClusterID, resp.Cycle, r.t.id, want)
			continue
		}
		r.cycle = resp.Cycle
		c.modes[r] = resp.PlanMode
		if resp.Plan == nil {
			continue
		}
		if err := checkFullPlan(r, resp); err != nil {
			c.fail(r, "%v", err)
		}
	}
}

// expectedCycle is the cycle r's response must carry: one past the
// tenant's previous successful response. exact is false when a failed
// request came in between.
func expectedCycle(r *request) (want int, exact bool) {
	exact = true
	for i := r.seq - 1; i >= 0; i-- {
		p := r.t.sent[i]
		if p.ok() && p.cycle > 0 {
			return p.cycle + 1, exact
		}
		exact = false
	}
	return 1, exact
}

// checkFullPlan audits a full plan against the snapshot the request
// carried.
func checkFullPlan(r *request, resp *api.PlanResponse) error {
	req, err := decodeRequest(r)
	if err != nil {
		return fmt.Errorf("request: %v", err)
	}
	if req.Snapshot == nil {
		return errors.New("full plan for a delta request")
	}
	st, err := req.Snapshot.CoreState()
	if err != nil {
		return fmt.Errorf("snapshot: %v", err)
	}
	plan, err := resp.Plan.CorePlan()
	if err != nil {
		return fmt.Errorf("plan: %v", err)
	}
	if err := core.CheckPlan(st, plan); err != nil {
		return err
	}
	delta := make([]core.Action, 0, len(resp.Delta))
	for _, a := range resp.Delta {
		ca, err := a.CoreAction()
		if err != nil {
			return fmt.Errorf("delta: %v", err)
		}
		delta = append(delta, ca)
	}
	return core.FreeingFirst(delta)
}

// samples collects named per-layer measurements from the replay and,
// when rec is set, records each timed step as a replay span of the
// request being replayed.
type samples struct {
	m   map[string][]float64
	rec *Recorder
	req uint64
}

func newSamples(rec *Recorder) *samples { return &samples{m: map[string][]float64{}, rec: rec} }

func (s *samples) add(name string, v float64) { s.m[name] = append(s.m[name], v) }

// dur records a step that started at t0 and ends now, in ms.
func (s *samples) dur(name string, t0 time.Time) {
	end := time.Now()
	s.add(name, ms(end.Sub(t0)))
	if s.rec != nil {
		s.rec.Record(s.rec.NewID(), 0, s.req, "replay."+strings.TrimSuffix(name, "_ms"), "", t0, end)
	}
}

// replayController times the real controller's Plan calls and keeps
// the last state and plan for re-timing the wire conversion.
type replayController struct {
	inner     *core.PlacementController
	last      time.Duration
	lastState *core.State
	lastPlan  *core.Plan
}

func (c *replayController) Name() string              { return c.inner.Name() }
func (c *replayController) PlanStats() core.PlanStats { return c.inner.PlanStats() }
func (c *replayController) Plan(st *core.State) *core.Plan {
	t0 := time.Now()
	p := c.inner.Plan(st)
	c.last = time.Since(t0)
	c.lastState, c.lastPlan = st, p
	return p
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// canonical is the part of a response a replay must reproduce byte
// for byte: the cluster, the cycle, the plan and the delta. Plan-mode
// and cumulative counters are left out: a session restored from a
// checkpoint restarts its counters.
func canonical(resp *api.PlanResponse, binary bool) ([]byte, error) {
	c := &api.PlanResponse{
		SchemaVersion: resp.SchemaVersion,
		ClusterID:     resp.ClusterID,
		Cycle:         resp.Cycle,
		Plan:          resp.Plan,
		Delta:         resp.Delta,
	}
	if binary {
		var buf bytes.Buffer
		err := api.EncodePlanResponseBinary(&buf, c)
		return buf.Bytes(), err
	}
	return json.Marshal(c)
}

// replayTenant replays a sample tenant's accepted requests in order
// and compares each served response with the replay's. It stops at the
// tenant's first unsuccessful request: the daemon's state after it is
// unknown. durable adds the checkpoint export, encode and restore
// timings the durable daemon pays.
func (c *checker) replayTenant(t *tenant, s *samples, durable bool) error {
	ctrl := &replayController{inner: core.New(core.DefaultConfig())}
	sess, err := control.NewSession(ctrl)
	if err != nil {
		return err
	}
	var prev *api.Plan
	var retained *core.State
	var fc *forecast.Forecaster
	var ck *api.Checkpoint
	for _, r := range t.sent {
		if !r.ok() || r.checkErr != nil {
			return nil
		}
		s.req = r.id
		a0, t0 := heapAllocs(), time.Now()
		req, err := decodeRequest(r)
		if r.binary {
			s.dur("api.decode_binary_ms", t0)
		} else {
			s.dur("api.decode_json_ms", t0)
		}
		s.add("api.decode_alloc_kb", float64(heapAllocs()-a0)/1024)
		if err != nil {
			return err
		}
		if req.Forecast != nil && r.seq == 0 {
			cfg := req.Forecast.Config()
			if err := sess.EnableForecast(cfg); err != nil {
				return err
			}
			if fc, err = forecast.New(cfg); err != nil {
				return err
			}
		}

		var st *core.State
		t0 = time.Now()
		if req.Snapshot != nil {
			if err = req.Snapshot.Validate(); err == nil {
				st, err = req.Snapshot.CoreState()
			}
			s.dur("api.convert_in_ms", t0)
		} else {
			st, err = req.Delta.ApplyTo(retained)
			s.dur("api.apply_delta_ms", t0)
		}
		if err != nil {
			return err
		}
		retained = st

		var plan *api.Plan
		var stats core.PlanStats
		t0 = time.Now()
		if req.Snapshot != nil {
			plan, stats, err = sess.Propose(req.Snapshot)
		} else {
			plan, stats, err = sess.ProposeDelta(req.Delta)
		}
		propose := time.Since(t0)
		if err != nil {
			return err
		}
		s.dur("control.propose_ms", t0)
		s.add("control.self_ms", ms(propose-ctrl.last))

		a0, t0 = heapAllocs(), time.Now()
		if _, err := api.FromCorePlan(ctrl.lastState, ctrl.lastPlan); err != nil {
			return err
		}
		s.dur("api.convert_out_ms", t0)
		s.add("api.convert_out_alloc_kb", float64(heapAllocs()-a0)/1024)

		t0 = time.Now()
		delta := plan.Diff(prev)
		s.dur("api.diff_ms", t0)
		prev = plan

		want := &api.PlanResponse{
			SchemaVersion: api.SchemaVersion, ClusterID: t.id, Cycle: sess.Cycles(),
			PlanMode: stats.LastMode.String(), Delta: delta,
		}
		if req.Reply != api.ReplyDelta {
			want.Plan = plan
		}
		t0 = time.Now()
		if r.accept == api.ContentTypeBinary {
			err = api.EncodePlanResponseBinary(&bytes.Buffer{}, want)
		} else {
			_, err = json.Marshal(want)
		}
		s.dur("api.encode_ms", t0)
		if err != nil {
			return err
		}
		s.add("api.req_kb", float64(len(r.body))/1024)
		s.add("api.resp_kb", float64(len(r.resp))/1024)

		got, err := decodeResponse(r)
		if err != nil {
			return err
		}
		gb, err1 := canonical(got, r.accept == api.ContentTypeBinary)
		wb, err2 := canonical(want, r.accept == api.ContentTypeBinary)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if !bytes.Equal(gb, wb) {
			c.fail(r, "served response differs from the control.Session replay")
			return nil
		}

		if durable {
			t0 = time.Now()
			ck, err = sess.Export()
			s.dur("control.export_ms", t0)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			t0 = time.Now()
			err = api.EncodeCheckpointBinary(&buf, ck)
			s.dur("api.checkpoint_encode_ms", t0)
			s.add("api.checkpoint_kb", float64(buf.Len())/1024)
			if err != nil {
				return err
			}
		}
		if fc != nil {
			for _, app := range req.Snapshot.Apps {
				t0 = time.Now()
				fc.Forecast(app.ID, req.Snapshot.Now, float64(app.Lambda))
				s.add("forecast.predict_us", float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
	}
	if ck != nil {
		t0 := time.Now()
		_, err := control.RestoreSession(core.New(core.DefaultConfig()), ck)
		s.dur("control.restore_ms", t0)
		if err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slaplace/internal/core"
	"slaplace/internal/replica"
	"slaplace/internal/serve"
)

// The fleet under test: serve.Server replicas on 127.0.0.1 listeners
// behind a replica.Coordinator on its own listener, each set up the
// way cmd/slaplace-serve and cmd/slaplace-proxy set theirs up. With a
// Recorder the fleet is traced from outside: a coordinator-handler
// wrapper, a backend Transport, a replica-handler wrapper and a
// controller wrapper record one span each per call; without one none
// of the wrappers is installed.

// Headers carrying trace context between the benchmark's own wrappers.
// The coordinator forwards only Content-Type and Accept, so the
// backend Transport re-attaches them from the request context.
const (
	hdrReq     = "X-Fleetbench-Req"
	hdrParent  = "X-Fleetbench-Parent"
	hdrCluster = "X-Fleetbench-Cluster"
)

// traceCtx identifies the request and the span a layer's work belongs to.
type traceCtx struct {
	req, parent uint64
	cluster     string
}

type ctxKey struct{}

func traceFromHeader(h http.Header) traceCtx {
	req, _ := strconv.ParseUint(h.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseUint(h.Get(hdrParent), 10, 64)
	return traceCtx{req: req, parent: parent, cluster: h.Get(hdrCluster)}
}

func (tc traceCtx) setHeader(h http.Header) {
	h.Set(hdrReq, strconv.FormatUint(tc.req, 10))
	h.Set(hdrParent, strconv.FormatUint(tc.parent, 10))
	h.Set(hdrCluster, tc.cluster)
}

// fleetConfig sizes a fleet.
type fleetConfig struct {
	replicas int
	// stateDir, when set, makes the replicas durable and claim-
	// arbitrated over one shared directory, as a slaplace-serve fleet
	// started with -state-dir, -replica-id and -peers.
	stateDir string
	rec      *Recorder
	// shapes maps a cluster ID to its shape label for core.plan tags.
	shapes map[string]string
}

// replicaNode is one daemon: a listener, an HTTP server, and the
// serve.Server behind it, which a restart replaces.
type replicaNode struct {
	url  string
	opts serve.Options
	rec  *Recorder

	cur atomic.Pointer[daemon]
	// restores counts checkpoint restores: drain hand-offs accepted by
	// this replica plus sessions its startup scan brought back.
	restores atomic.Int64
	// probes counts the coordinator's readiness probes of this replica.
	probes atomic.Int64
	// inflight maps a cluster to the trace context of the plan request
	// this replica is handling for it, so the controller wrapper can
	// parent its span. The daemon serializes requests per cluster.
	inflight sync.Map
}

type daemon struct {
	srv *serve.Server
	h   http.Handler
	hs  *http.Server
}

// fleet is a running fleet.
type fleet struct {
	replicas []*replicaNode
	co       *replica.Coordinator
	coHS     *http.Server
	coURL    string
	backend  *http.Transport
}

// startFleet brings a fleet up. Listeners bind before any server
// starts so every replica knows its peers' URLs.
func startFleet(cfg fleetConfig) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, cfg.replicas)
	urls := make([]string, cfg.replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i := range lns {
		n := &replicaNode{url: urls[i], rec: cfg.rec}
		n.opts = serve.Options{
			NewController:   n.newController(cfg.shapes),
			MaxBodyBytes:    serve.DefaultMaxBodyBytes,
			CheckpointEvery: 1,
		}
		if cfg.stateDir != "" {
			n.opts.StateDir = cfg.stateDir
			n.opts.ReplicaID = urls[i]
			n.opts.StaleClaimAfter = 10 * time.Second
			for j, u := range urls {
				if j != i {
					n.opts.Peers = append(n.opts.Peers, u)
				}
			}
		}
		n.serveOn(lns[i])
		f.replicas = append(f.replicas, n)
	}
	for _, n := range f.replicas {
		// A durable daemon is "restoring" until its scan finishes.
		if _, err := n.cur.Load().srv.ScanState(); err != nil {
			f.close()
			return nil, err
		}
	}

	f.backend = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = f.backend
	if cfg.rec != nil {
		rt = &tracingTransport{base: f.backend, rec: cfg.rec}
	}
	co, err := replica.NewCoordinator(replica.CoordinatorOptions{
		Replicas:     urls,
		ProbeEvery:   time.Second,
		ProbeTimeout: time.Second,
		MaxBodyBytes: 64 << 20,
		HTTP:         &http.Client{Transport: rt},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	co.Client().MaxAttempts = 8
	co.Client().RequestTimeout = 10 * time.Second
	co.Start()
	f.co = co

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	var h http.Handler = co.Handler()
	if cfg.rec != nil {
		h = forwardSpan(cfg.rec, h)
	}
	f.coHS = &http.Server{
		Handler:           h,
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	f.coURL = "http://" + ln.Addr().String()
	go f.coHS.Serve(ln)
	return f, nil
}

// serveOn starts a fresh daemon for the node on ln.
func (n *replicaNode) serveOn(ln net.Listener) {
	d := &daemon{srv: serve.New(n.opts)}
	d.h = d.srv.Handler()
	d.hs = serve.NewHTTPServer(n.handler(), 30*time.Second, 2*time.Minute)
	n.cur.Store(d)
	go d.hs.Serve(ln)
}

// reset replaces the node's daemon with a fresh, empty one on the
// same listener, as a stateless replica comes back after a restart.
func (n *replicaNode) reset() {
	old := n.cur.Load()
	d := &daemon{srv: serve.New(n.opts), hs: old.hs}
	d.h = d.srv.Handler()
	n.cur.Store(d)
}

// handler routes to whichever daemon is current, counting accepted
// checkpoint hand-offs and, when traced, recording serve.handle.
func (n *replicaNode) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := n.cur.Load().h
		if r.URL.Path == "/v1/readyz" {
			n.probes.Add(1)
		}
		isPut := r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/checkpoint")
		if n.rec == nil && !isPut {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if n.rec == nil || r.URL.Path != "/v1/plan" {
			h.ServeHTTP(sw, r)
			if isPut && sw.status == http.StatusNoContent {
				n.restores.Add(1)
			}
			return
		}
		tc := traceFromHeader(r.Header)
		id := n.rec.NewID()
		if tc.cluster != "" {
			n.inflight.Store(tc.cluster, traceCtx{req: tc.req, parent: id, cluster: tc.cluster})
		}
		start := time.Now()
		h.ServeHTTP(sw, r)
		end := time.Now()
		if tc.cluster != "" {
			n.inflight.Delete(tc.cluster)
		}
		n.rec.Record(id, tc.parent, tc.req, spanHandle, strconv.Itoa(sw.status), start, end)
	})
}

// awaitProbe returns once the coordinator has probed the node again,
// or after timeout.
func (n *replicaNode) awaitProbe(timeout time.Duration) {
	seen := n.probes.Load()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		if n.probes.Load() != seen {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// restart drains the current daemon (hand-offs to peers, final
// checkpoints), shuts its listener, starts a fresh daemon on the same
// address and state dir, and runs its startup scan — a rolling
// restart of one slaplace-serve process.
func (n *replicaNode) restart(ctx context.Context) (restored int, err error) {
	old := n.cur.Load()
	if err := old.srv.Drain(ctx); err != nil {
		// A hand-off nobody accepted stays adoptable on disk; the run's
		// failure accounting shows any traffic it costs.
		logf("restart %s: drain: %v", n.url, err)
	}
	if err := old.hs.Shutdown(ctx); err != nil {
		return 0, fmt.Errorf("restart %s: shutdown: %w", n.url, err)
	}
	addr := strings.TrimPrefix(n.url, "http://")
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt == 50 {
			return 0, fmt.Errorf("restart %s: listen: %w", n.url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.serveOn(ln)
	restored, err = n.cur.Load().srv.ScanState()
	n.restores.Add(int64(restored))
	return restored, err
}

// close stops every server the fleet started and the coordinator's
// probe loop.
func (f *fleet) close() {
	if f.co != nil {
		f.co.Close()
	}
	if f.coHS != nil {
		f.coHS.Close()
	}
	for _, n := range f.replicas {
		if d := n.cur.Load(); d != nil {
			d.hs.Close()
		}
	}
	if f.backend != nil {
		f.backend.CloseIdleConnections()
	}
}

// sessions is the total session count over the current daemons.
func (f *fleet) sessions(ctx context.Context) (int, error) {
	total := 0
	for _, n := range f.replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/v1/healthz", nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		var h struct {
			Sessions int `json:"sessions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		total += h.Sessions
	}
	return total, nil
}

// newController builds the node's controller constructor: the paper's
// placement controller with the default configuration (what
// slaplace-serve runs), wrapped for timing when traced.
func (n *replicaNode) newController(shapes map[string]string) func() core.Controller {
	if n.rec == nil {
		return func() core.Controller { return core.New(core.DefaultConfig()) }
	}
	return func() core.Controller {
		return &timedController{inner: core.New(core.DefaultConfig()), node: n, shapes: shapes}
	}
}

// timedController forwards Name, Plan and PlanStats to the real
// controller and records a core.plan span per Plan call, tagged with
// the tier it took and the tenant's shape.
type timedController struct {
	inner  *core.PlacementController
	node   *replicaNode
	shapes map[string]string
}

func (c *timedController) Name() string              { return c.inner.Name() }
func (c *timedController) PlanStats() core.PlanStats { return c.inner.PlanStats() }

func (c *timedController) Plan(st *core.State) *core.Plan {
	var tc traceCtx
	cluster := ""
	if len(st.Apps) > 0 {
		cluster = string(st.Apps[0].ID)
		if v, ok := c.node.inflight.Load(cluster); ok {
			tc = v.(traceCtx)
		}
	}
	id := c.node.rec.NewID()
	start := time.Now()
	p := c.inner.Plan(st)
	end := time.Now()
	tag := c.inner.PlanStats().LastMode.String() + "/" + c.shapes[cluster]
	if tc.parent == 0 {
		tag = "restore/" + tag
	}
	c.node.rec.Record(id, tc.parent, tc.req, spanPlan, tag, start, end)
	return p
}

// forwardSpan wraps the coordinator's handler: it reads the trace
// headers the load generator set, records replica.forward, and hands
// the request ID to the backend Transport through the context.
func forwardSpan(rec *Recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc := traceFromHeader(r.Header)
		id := rec.NewID()
		ctx := context.WithValue(r.Context(), ctxKey{}, traceCtx{req: tc.req, parent: id, cluster: tc.cluster})
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(ctx))
		rec.Record(id, tc.parent, tc.req, spanForward, "", start, time.Now())
	})
}

// tracingTransport times every backend attempt the coordinator makes,
// from RoundTrip until the response body is fully read, and carries
// the trace context to the replica in headers.
type tracingTransport struct {
	base http.RoundTripper
	rec  *Recorder
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, ok := req.Context().Value(ctxKey{}).(traceCtx)
	if !ok {
		return t.base.RoundTrip(req) // readiness probes
	}
	id := t.rec.NewID()
	out := req.Clone(req.Context())
	traceCtx{req: tc.req, parent: id, cluster: tc.cluster}.setHeader(out.Header)
	start := time.Now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.rec.Record(id, tc.parent, tc.req, spanAttempt, "refused", start, time.Now())
		return nil, err
	}
	status := strconv.Itoa(resp.StatusCode)
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.rec.Record(id, tc.parent, tc.req, spanAttempt, status, start, time.Now())
	}}
	return resp, nil
}

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

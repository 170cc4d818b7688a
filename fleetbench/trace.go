package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, outermost first. One plan request produces the chain
// client.request → replica.forward → replica.backend_attempt (one per
// attempt) → serve.handle → core.plan; the single-goroutine replay
// after the run adds its own replay.* spans.
const (
	spanClient  = "client.request"
	spanForward = "replica.forward"
	spanAttempt = "replica.backend_attempt"
	spanHandle  = "serve.handle"
	spanPlan    = "core.plan"
)

// Span is one timed interval at a layer boundary. Start and End are
// wall-clock times in nanoseconds since the Unix epoch. Req groups the
// spans of one plan request; Parent is the span that caused this one
// (0 for a root).
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	// Tag carries a layer-specific label: the HTTP status of an attempt
	// or handler, the tier and shape of a plan.
	Tag string `json:"tag,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay one nil check per boundary.
type Recorder struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewID allocates a span ID; 0 on a nil recorder.
func (r *Recorder) NewID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// Record stores a finished span with absolute start and end times.
func (r *Recorder) Record(id, parent, req uint64, name, tag string, start, end time.Time) {
	if r == nil {
		return
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name, Tag: tag,
		Start: time.Duration(start.UnixNano()), End: time.Duration(end.UnixNano())}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover (overlapping
// children are counted once, and child time outside the parent is
// ignored). The result is keyed by span ID.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

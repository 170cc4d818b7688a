package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"slaplace/api"
)

// The load generator: at most two goroutines and two connections (the
// host has two cores), sending pre-encoded bodies to the coordinator
// over loopback TCP. It never retries or reroutes: whatever the
// coordinator answers after its own retries is the outcome.

const genWorkers = 2

// request is one plan request and, once sent, its outcome.
type request struct {
	t      *tenant
	body   []byte
	binary bool   // body in the binary codec
	accept string // Accept header
	// seq is the request's index in its tenant's accepted sequence:
	// the response's cycle must equal seq+1.
	seq int

	id         uint64        // request ID, shared by every span it causes
	due        time.Duration // open loop: when it should be sent, from the phase start
	start, end time.Time
	status     int
	err        error
	resp       []byte
	// lat is the latency charged to the request: from due time (open
	// loop) or send time (closed loop) to the last response byte.
	lat time.Duration
	// cycle is the session cycle the response reported.
	cycle int
	// checkErr is set when the response failed an output check; the
	// request then counts as failed, never as a latency sample.
	checkErr error
	// late is how long the generator itself was late sending it, after
	// both the due time and a free worker: a check on the generator.
	late time.Duration
}

// ok reports whether the request succeeded at the transport and HTTP
// level (output checks run later).
func (r *request) ok() bool { return r.err == nil && r.status == http.StatusOK }

// good reports whether the request succeeded and passed its checks.
func (r *request) good() bool { return r.ok() && r.checkErr == nil }

// queued is how long the request waited behind its due time before
// it was sent: the generator's backlog as this request saw it.
func (r *request) queued() time.Duration { return r.lat - r.end.Sub(r.start) }

// generator sends requests to one coordinator URL.
type generator struct {
	url    string
	client *http.Client
	rec    *Recorder
	nextID *atomic.Uint64
}

func newGenerator(url string, rec *Recorder, ids *atomic.Uint64) *generator {
	tr := &http.Transport{
		MaxConnsPerHost:     genWorkers,
		MaxIdleConnsPerHost: genWorkers,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &generator{url: url + "/v1/plan", client: &http.Client{Transport: tr}, rec: rec, nextID: ids}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// send performs one request and fills in its outcome.
func (g *generator) send(ctx context.Context, r *request) {
	r.id = g.nextID.Add(1)
	spanID := g.rec.NewID()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(r.body))
	if err != nil {
		r.err = err
		return
	}
	if r.binary {
		hreq.Header.Set("Content-Type", api.ContentTypeBinary)
	} else {
		hreq.Header.Set("Content-Type", api.ContentTypeJSON)
	}
	if r.accept != "" {
		hreq.Header.Set("Accept", r.accept)
	}
	if g.rec != nil {
		traceCtx{req: r.id, parent: spanID, cluster: r.t.id}.setHeader(hreq.Header)
	}
	r.start = time.Now()
	resp, err := g.client.Do(hreq)
	if err == nil {
		r.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.end = time.Now()
	r.err = err
	g.rec.Record(spanID, 0, r.id, spanClient, strconv.Itoa(r.status), r.start, r.end)
}

// openLoop sends reqs on a fixed schedule, req i due at offset
// i/rate from the phase start, whether or not earlier requests have
// completed. Latency runs from the due time, so a stall charges its
// wait to every request queued behind it. A tenant's requests are
// still sent one at a time, in order: each builds on the cycle the
// previous one planned. Requests not started by the phase's end plus
// grace count as failures. It returns when every request has an
// outcome.
func (g *generator) openLoop(ctx context.Context, reqs []*request, rate float64, grace time.Duration) time.Duration {
	epoch := time.Now()
	for i, r := range reqs {
		r.due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	cutoff := time.Duration(float64(len(reqs))/rate*float64(time.Second)) + grace
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				r.t.acquire()
				ready := time.Now()
				dueAt := epoch.Add(r.due)
				sleepUntil(dueAt)
				if time.Since(epoch) > cutoff {
					r.err = errNotSent
					r.t.release()
					continue
				}
				g.send(ctx, r)
				r.t.release()
				r.lat = r.end.Sub(dueAt)
				r.late = r.start.Sub(latest(dueAt, ready))
			}
		}()
	}
	wg.Wait()
	return time.Since(epoch)
}

// closedLoop sends reqs from genWorkers clients, each sending its next
// request only when its previous one completed. Latency runs from the
// send. It returns the wall time until the last response.
func (g *generator) closedLoop(ctx context.Context, reqs []*request) time.Duration {
	epoch := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				r.due = time.Since(epoch)
				g.send(ctx, r)
				r.lat = r.end.Sub(r.start)
			}
		}()
	}
	wg.Wait()
	return time.Since(epoch)
}

// sleepUntil blocks the calling goroutine in a nanosleep system call
// rather than on a runtime timer. The fleet shares this process, and
// its timers fire late while the fleet keeps every P busy (the
// collector's idle mark workers, for one, do not run them); a
// goroutine returning from a system call is queued where every P looks
// for work. Sleeping on a timer charged about 0.6ms of wake-up delay
// to every request and collector pauses to whole bursts of them.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// errNotSent marks a request the generator never got to: the backlog
// outlived the phase.
var errNotSent = errors.New("not sent: backlog outlived the phase")

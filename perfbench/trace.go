package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps the spans kept in memory; later spans are counted as
// dropped instead of recorded.
const maxSpans = 1 << 20

// span is one timed call into a layer, recorded from the benchmark's own
// wrappers around the program. Times are nanoseconds since the tracer
// started. Client round trips and server handlers join on ReqID, the
// X-Request-ID the wrapped RoundTripper sets.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	ReqID  string `json:"reqId,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// Span names.
const (
	spanSubmit = "submit" // one device submission (ParticipateStream)
	spanClose  = "close"  // one driver window close
	spanRT     = "rt"     // one client HTTP round trip, body read included
	// Server handler layers.
	spanNode   = "node"   // a single streaming node's handler
	spanCoord  = "coord"  // a cluster coordinator's handler
	spanWorker = "worker" // a cluster worker's handler
)

// HTTP operations as spans name them.
const (
	opCampaign = "GET /v1/stream/campaign"
	opClaims   = "POST /v1/stream/claims"
	opWindow   = "POST /v1/stream/window"
	opRPCClose = "POST /v1/cluster/close"
	opCommit   = "POST /v1/cluster/commit"
)

// tracer keeps spans in memory while on; off, every wrapper passes
// straight through.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every recorded span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

type parentKey struct{}

// opContext starts an operation span: it returns the span's ID and a
// context that makes the span the parent of the round trips issued
// under it. Off, it returns ctx unchanged and ID 0.
func (t *tracer) opContext(ctx context.Context) (context.Context, int64) {
	if !t.on.Load() {
		return ctx, 0
	}
	id := t.ids.Add(1)
	return context.WithValue(ctx, parentKey{}, id), id
}

// recordOp records an operation span started by opContext.
func (t *tracer) recordOp(id int64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	t.record(span{ID: id, Name: name, Start: t.at(start), End: t.at(end)})
}

// tracedTransport wraps the RoundTripper handed to the program's client:
// it stamps X-Request-ID so the server's handler span joins the round
// trip, and records the round trip until the client closes the body.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.next.RoundTrip(req)
	}
	id := t.tr.ids.Add(1)
	reqID := "pb-" + strconv.FormatInt(id, 36)
	out := req.Clone(req.Context())
	out.Header.Set("X-Request-ID", reqID)
	parent, _ := req.Context().Value(parentKey{}).(int64)
	s := span{ID: id, Parent: parent, Name: spanRT, Op: req.Method + " " + req.URL.Path, ReqID: reqID, Start: t.tr.now()}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		s.End = t.tr.now()
		t.tr.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

// spanBody ends its round-trip span when the client closes the body,
// counting the response bytes read.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.tr.now()
		b.tr.record(b.s)
	})
	return err
}

// handler wraps the http.Handler the benchmark mounts for a node, timing
// each request as a span of the given layer.
func (t *tracer) handler(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.ids.Add(1), Name: layer, Op: r.Method + " " + r.URL.Path,
			ReqID: r.Header.Get("X-Request-ID"), Start: t.now()}
		next.ServeHTTP(w, r)
		s.End = t.now()
		t.record(s)
	})
}

// spanIndex answers the per-layer questions over one traced phase.
type spanIndex struct {
	all      []span
	byReqID  map[string][]span // handler spans by request ID
	children map[int64][]span  // spans by parent ID
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{all: spans, byReqID: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		if s.Name != spanRT && s.ReqID != "" {
			ix.byReqID[s.ReqID] = append(ix.byReqID[s.ReqID], s)
		}
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

func (ix *spanIndex) find(name, op string) []span {
	var out []span
	for _, s := range ix.all {
		if s.Name == name && (op == "" || s.Op == op) {
			out = append(out, s)
		}
	}
	return out
}

// meanMs is the mean duration of the named spans, 0 when there are none.
func (ix *spanIndex) meanMs(name, op string) float64 {
	ss := ix.find(name, op)
	var sum float64
	for _, s := range ss {
		sum += s.ms()
	}
	return ratio(sum, float64(len(ss)))
}

// transportMs is the mean, over round trips of op answered by the given
// handler layer, of the round trip minus the handler: client and server
// HTTP plumbing plus loopback.
func (ix *spanIndex) transportMs(op, layer string) float64 {
	var sum float64
	var n int
	for _, rt := range ix.find(spanRT, op) {
		for _, h := range ix.byReqID[rt.ReqID] {
			if h.Name == layer {
				sum += rt.ms() - h.ms()
				n++
			}
		}
	}
	return ratio(sum, float64(n))
}

// coveredNs is how much of [start, end) the intervals cover (their union
// clipped to the window).
func coveredNs(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], start), min(iv[1], end)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfMs is the mean self time of the parent spans: each one's duration
// minus the part of it covered by the child intervals children returns.
func (ix *spanIndex) selfMs(parents []span, children func(p span) [][2]int64) float64 {
	var sum float64
	for _, p := range parents {
		sum += float64(p.End-p.Start-coveredNs(p.Start, p.End, children(p))) / 1e6
	}
	return ratio(sum, float64(len(parents)))
}

// childIntervals lists the intervals of a span's recorded children.
func (ix *spanIndex) childIntervals(p span) [][2]int64 {
	var ivs [][2]int64
	for _, c := range ix.children[p.ID] {
		ivs = append(ivs, [2]int64{c.Start, c.End})
	}
	return ivs
}

// containedIntervals lists the intervals of the named spans with one of
// the given ops that lie inside p; used where the program does not carry
// the request ID across a hop (coordinator to worker).
func (ix *spanIndex) containedIntervals(p span, name string, ops ...string) [][2]int64 {
	var ivs [][2]int64
	for _, s := range ix.all {
		if s.Name != name || s.Start < p.Start || s.End > p.End {
			continue
		}
		for _, op := range ops {
			if s.Op == op {
				ivs = append(ivs, [2]int64{s.Start, s.End})
			}
		}
	}
	return ivs
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"everyware/internal/wire"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's origin (monotonic clock).
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Service string `json:"service"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced run in memory; write dumps them
// when the run ends.
type recorder struct {
	origin time.Time
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans finished so far (set-up and warm-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// all returns a copy of the spans recorded so far.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
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

// tracer is the wire.Tracer handed to one daemon, runner, replica set or
// client. Every trace is sampled. A span started without a parent joins
// the tracer's adopted context when one is set: a sched.Runner roots a
// new trace at each report, and adoption makes that root a child of the
// benchmark's own span around Runner.Cycle.
type tracer struct {
	rec     *recorder
	service string
	adopt   wire.TraceContext // set and cleared by the one goroutine driving a runner
}

func (r *recorder) tracer(service string) *tracer {
	return &tracer{rec: r, service: service}
}

// StartSpan implements wire.Tracer.
func (t *tracer) StartSpan(name string, parent wire.TraceContext) wire.ActiveSpan {
	if !parent.Valid() {
		parent = t.adopt
	}
	s := &activeSpan{rec: t.rec, s: span{
		ID:      t.rec.ids.Add(1),
		Name:    name,
		Service: t.service,
		Start:   t.rec.now(),
	}}
	if parent.Valid() {
		s.s.Trace, s.s.Parent = parent.TraceID, parent.SpanID
	} else {
		s.s.Trace = s.s.ID
	}
	return s
}

// activeSpan is one open span.
type activeSpan struct {
	rec *recorder
	s   span
}

func (a *activeSpan) Context() wire.TraceContext {
	return wire.TraceContext{TraceID: a.s.Trace, SpanID: a.s.ID, ParentID: a.s.Parent, Sampled: true}
}

func (a *activeSpan) Annotate(string, string) {}

func (a *activeSpan) End(string) {
	a.s.End = a.rec.now()
	a.rec.add(a.s)
}

// layerOf maps a span to the layer charged with its self time. Layers
// are named after the repository's modules. Serve spans belong to the
// daemon whose handler ran; client call and attempt spans, whose self
// time is encode, send, transit and demux, belong to wire. The op root's
// own uncovered time is "gap": time no layer span explains.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "op."):
		return layerGap
	case strings.HasPrefix(name, "wire.serve."):
		return msgLayer(strings.TrimPrefix(name, "wire.serve."))
	case name == "bench.wire.go", name == "wire.attempt", strings.HasPrefix(name, "wire.call."):
		return "wire"
	case name == "bench.runner.cycle":
		return "ramsey"
	case strings.HasPrefix(name, "bench.pstate."):
		return "pstate"
	case name == "bench.agent.set":
		return "gossip"
	}
	return msgLayer(name)
}

// msgLayer maps a message or span name to its module by prefix.
func msgLayer(name string) string {
	for _, p := range []struct{ prefix, layer string }{
		{"sched.", "sched"},
		{"pstate.", "pstate"},
		{"gossip.", "gossip"},
		{"log.", "logsvc"},
		{"clique", "clique"},
		{"gen.", "gen"},
	} {
		if strings.HasPrefix(name, p.prefix) {
			return p.layer
		}
	}
	return "wire"
}

const layerGap = "gap"

// node is a span placed in its tree.
type node struct {
	s    *span
	kids []*node
}

// buildForest links spans into trees by parent ID and returns every node
// by span ID. Spans whose parent was never recorded stay unattached.
func buildForest(spans []span) map[uint64]*node {
	nodes := make(map[uint64]*node, len(spans))
	for i := range spans {
		nodes[spans[i].ID] = &node{s: &spans[i]}
	}
	for _, n := range nodes {
		if p, ok := nodes[n.s.Parent]; ok && n.s.Parent != 0 {
			p.kids = append(p.kids, n)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.kids, func(i, j int) bool { return n.kids[i].s.End > n.kids[j].s.End })
	}
	return nodes
}

// selfTimes charges every nanosecond of root's interval to exactly one
// layer along the tree's critical path. Walking back from the root's end,
// the child that finishes last (clipped to the current cursor) is the one
// the parent was waiting for; the interval between that child's end and
// the cursor is the parent's own time, and the walk recurses into the
// child and then continues from the child's start. Children are clipped to
// their parent, so asynchronous work that outlives its parent (a log
// append forwarded after the decision returned) is charged only for the
// part the parent waited on. The per-layer totals therefore sum to the
// root's duration exactly; what stays with the root itself is "gap".
func selfTimes(root *node, out map[string]int64) {
	attribute(root, root.s.Start, root.s.End, out)
}

func attribute(n *node, lo, hi int64, out map[string]int64) {
	layer := layerOf(n.s.Name)
	cursor := hi
	// Kids are sorted by end time, latest first, so the first kid that
	// starts before the cursor has the latest clipped end. Kids skipped on
	// the way start at or after the cursor, which only moves back, so they
	// never qualify again.
	for i := 0; i < len(n.kids) && cursor > lo; i++ {
		k := n.kids[i]
		if k.s.End <= lo {
			break
		}
		if k.s.Start >= cursor {
			continue
		}
		end, start := k.s.End, k.s.Start
		if end > cursor {
			end = cursor
		}
		if start < lo {
			start = lo
		}
		out[layer] += cursor - end
		attribute(k, start, end, out)
		cursor = start
	}
	out[layer] += cursor - lo
}

// spanIndex finds spans by name.
type spanIndex struct {
	byName map[string][]*span
}

func indexSpans(spans []span) spanIndex {
	idx := spanIndex{byName: make(map[string][]*span)}
	for i := range spans {
		s := &spans[i]
		idx.byName[s.Name] = append(idx.byName[s.Name], s)
	}
	for _, l := range idx.byName {
		sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	}
	return idx
}

// named returns every span called name, in start order.
func (x spanIndex) named(name string) []*span { return x.byName[name] }

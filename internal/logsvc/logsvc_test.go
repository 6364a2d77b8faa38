package logsvc

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/dtrace"
	"everyware/internal/wire"
)

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestEntryRoundTrip(t *testing.T) {
	en := Entry{Unix: 12345, Source: "client-1", Level: "perf", Line: "ops=42"}
	got, err := DecodeEntry(EncodeEntry(en))
	if err != nil || got != en {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestQuickEntryRoundTrip(t *testing.T) {
	f := func(unix int64, source, level, line string) bool {
		en := Entry{Unix: unix, Source: source, Level: level, Line: line}
		got, err := DecodeEntry(EncodeEntry(en))
		return err == nil && got == en
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogAndTailOverWire(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	c := NewClient(wc, s.Addr(), "client-7", time.Second)
	for i := 0; i < 5; i++ {
		if err := c.Log("info", "message %d", i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Tail(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("tail = %d entries", len(got))
	}
	if got[0].Line != "message 2" || got[2].Line != "message 4" {
		t.Fatalf("tail order wrong: %+v", got)
	}
	if got[0].Source != "client-7" {
		t.Fatalf("source = %q", got[0].Source)
	}
}

func TestRingBufferWraps(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		s.Append(Entry{Unix: int64(i), Line: "x"})
	}
	got := s.Tail(100)
	if len(got) != 4 {
		t.Fatalf("ring should hold 4, got %d", len(got))
	}
	if got[0].Unix != 6 || got[3].Unix != 9 {
		t.Fatalf("ring contents wrong: %+v", got)
	}
	appended, _ := s.Stats()
	if appended != 10 {
		t.Fatalf("appended = %d", appended)
	}
}

func TestTailFewerThanRequested(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	s.Append(Entry{Unix: 1, Line: "only"})
	got := s.Tail(10)
	if len(got) != 1 || got[0].Line != "only" {
		t.Fatalf("got %+v", got)
	}
	if len(s.Tail(0)) != 0 {
		t.Fatal("tail(0) must be empty")
	}
}

func TestFileAppendAndQuota(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.log")
	s := newTestServer(t, ServerConfig{File: path, MaxFileBytes: 80})
	for i := 0; i < 20; i++ {
		s.Append(Entry{Unix: int64(i), Source: "s", Level: "perf", Line: "0123456789"})
	}
	_, dropped := s.Stats()
	if dropped == 0 {
		t.Fatal("quota should have dropped some file lines")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) > 80 {
		t.Fatalf("file size %d exceeds quota", len(raw))
	}
	if !strings.Contains(string(raw), "0123456789") {
		t.Fatal("file missing logged content")
	}
	// Ring buffer still holds everything despite the file quota.
	if len(s.Tail(100)) != 20 {
		t.Fatal("ring must retain entries dropped from the file")
	}
}

func TestFilePersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.log")
	s1 := newTestServer(t, ServerConfig{File: path})
	s1.Append(Entry{Unix: 1, Source: "a", Level: "info", Line: "first"})
	s1.Close()
	s2 := newTestServer(t, ServerConfig{File: path})
	s2.Append(Entry{Unix: 2, Source: "a", Level: "info", Line: "second"})
	s2.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "first") || !strings.Contains(string(raw), "second") {
		t.Fatalf("log file lost data: %q", raw)
	}
}

// TestRingGrowsLazilyUpToBound: the entry ring fills as entries arrive,
// keeps its order across growth and wrap, and never holds room for more
// than MaxEntries.
func TestRingGrowsLazilyUpToBound(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxEntries: 5})
	for i := 0; i < 3; i++ {
		s.Append(Entry{Unix: int64(i), Source: "s", Level: "info", Line: "x"})
	}
	if c := cap(s.ring); c > 5 {
		t.Fatalf("ring cap %d exceeds MaxEntries 5", c)
	}
	if got := s.Tail(10); len(got) != 3 || got[0].Unix != 0 || got[2].Unix != 2 || got[1].Source != "s" {
		t.Fatalf("after 3 appends: %+v", got)
	}
	for i := 3; i < 7; i++ {
		s.Append(Entry{Unix: int64(i), Line: "x"})
		if c := cap(s.ring); c > 5 {
			t.Fatalf("ring cap %d exceeds MaxEntries 5", c)
		}
	}
	got := s.Tail(10)
	if len(got) != 5 {
		t.Fatalf("after 7 appends: %d entries", len(got))
	}
	for i, en := range got {
		if en.Unix != int64(i+2) {
			t.Fatalf("after 7 appends: %+v", got)
		}
	}
	if d := s.StatsDetail(); d.RingDropped != 2 {
		t.Fatalf("ring dropped %d want 2", d.RingDropped)
	}
}

// TestAppendRejectsTruncatedLine: a MsgAppend whose Line length prefix is
// cut short fails validation as a whole; nothing is stored or counted.
func TestAppendRejectsTruncatedLine(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	p := EncodeEntry(Entry{Unix: 1, Source: "src", Level: "perf", Line: "ops=1"})
	p = p[:len(p)-len("ops=1")-2] // keep two of Line's four prefix bytes
	if _, err := s.handleAppend("", &wire.Packet{Type: MsgAppend, Payload: p}); err == nil {
		t.Fatal("truncated Line prefix accepted")
	}
	if d := s.StatsDetail(); d.Appended != 0 || len(s.Tail(10)) != 0 {
		t.Fatalf("rejected append was stored: %+v", d)
	}
}

// TestNewServerFootprint: a new server's rings take no room until
// entries and spans arrive.
func TestNewServerFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	const servers, limit = 4, 64 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle also empties sync.Pool victim caches
	runtime.ReadMemStats(&before)
	ss := make([]*Server, servers)
	for i := range ss {
		s, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ss)
	got := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / servers
	t.Logf("NewServer retains %d B", got)
	if got >= limit {
		t.Fatalf("NewServer retains %d B, want under %d", got, limit)
	}
}

// TestRingEvictionCounted: a full entry ring evicts oldest-first and the
// loss is counted — in StatsDetail and in the "logsvc.dropped" counter
// that MsgStats and ew-top surface.
func TestRingEvictionCounted(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		s.Append(Entry{Unix: int64(i), Line: "x"})
	}
	d := s.StatsDetail()
	if d.Appended != 10 {
		t.Fatalf("appended = %d", d.Appended)
	}
	if d.RingDropped != 6 {
		t.Fatalf("ring dropped %d want 6", d.RingDropped)
	}
	if got := s.reg.Snapshot("").Value("logsvc.dropped"); got != 6 {
		t.Fatalf("logsvc.dropped counter = %d want 6", got)
	}
}

// TestSpanRingBounded: the trace collector's span ring wraps like the
// entry ring — newest spans retained, evictions counted in
// "logsvc.trace.dropped" — and Spans filters by trace and bounds by max
// (most recent winning).
func TestSpanRingBounded(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxSpans: 4})
	spans := make([]dtrace.Span, 10)
	for i := range spans {
		spans[i] = dtrace.Span{TraceID: uint64(1 + i%2), SpanID: uint64(i + 1), Start: int64(i), Name: "op", Outcome: "ok"}
	}
	// The ring fills lazily: below the bound it holds what arrived, in order.
	s.CollectSpans(spans[:3])
	if got := s.Spans(0, 0); len(got) != 3 || got[0].SpanID != 1 || got[2].SpanID != 3 {
		t.Fatalf("after 3 spans: %+v", got)
	}
	for _, sp := range spans[3:] {
		s.CollectSpans([]dtrace.Span{sp})
		if c := cap(s.spanRing); c > 4 {
			t.Fatalf("span ring cap %d exceeds MaxSpans 4", c)
		}
	}
	got := s.Spans(0, 0)
	if len(got) != 4 {
		t.Fatalf("span ring holds %d want 4", len(got))
	}
	if got[0].SpanID != 7 || got[3].SpanID != 10 {
		t.Fatalf("ring kept wrong spans: first=%d last=%d", got[0].SpanID, got[3].SpanID)
	}
	d := s.StatsDetail()
	if d.Spans != 10 || d.SpanDropped != 6 {
		t.Fatalf("span accounting: spans=%d dropped=%d", d.Spans, d.SpanDropped)
	}
	snap := s.reg.Snapshot("")
	if snap.Value("logsvc.trace.dropped") != 6 {
		t.Fatalf("logsvc.trace.dropped = %d want 6", snap.Value("logsvc.trace.dropped"))
	}
	if snap.Value("logsvc.trace.spans") != 10 {
		t.Fatalf("logsvc.trace.spans = %d want 10", snap.Value("logsvc.trace.spans"))
	}
	// Trace filter: only trace 2's surviving spans.
	for _, sp := range s.Spans(0, 2) {
		if sp.TraceID != 2 {
			t.Fatalf("filter leaked trace %d", sp.TraceID)
		}
	}
	// Bounded fetch keeps the most recent.
	last := s.Spans(2, 0)
	if len(last) != 2 || last[1].SpanID != 10 {
		t.Fatalf("max=2 fetch: %+v", last)
	}
}

// TestCollectorOverWire: the collector handlers — MsgTraceExport appends,
// MsgTraceFetch reads back with max and trace-ID filters applied.
func TestCollectorOverWire(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	wc := wire.NewClient(time.Second)
	defer wc.Close()
	in := []dtrace.Span{
		{TraceID: 5, SpanID: 1, Name: "root", Outcome: "ok"},
		{TraceID: 5, SpanID: 2, ParentID: 1, Name: "child", Outcome: "ok"},
		{TraceID: 6, SpanID: 3, Name: "other", Outcome: "error"},
	}
	if _, err := wc.Call(s.Addr(), &wire.Packet{Type: dtrace.MsgTraceExport, Payload: dtrace.EncodeSpans(in)}, time.Second); err != nil {
		t.Fatal(err)
	}
	all, err := dtrace.Fetch(wc, s.Addr(), 0, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("fetched %d spans want 3", len(all))
	}
	one, err := dtrace.Fetch(wc, s.Addr(), 0, 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 2 || one[0].TraceID != 5 {
		t.Fatalf("trace filter: %+v", one)
	}
}

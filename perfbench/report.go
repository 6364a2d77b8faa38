package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"everyware/internal/grid"
	"everyware/internal/ramsey"
	"everyware/internal/sched"
	"everyware/internal/wire"
)

// reportSpec sizes the report workload.
type reportSpec struct {
	Clients     int       `json:"clients"`
	Shards      int       `json:"shards"`
	Gossips     int       `json:"gossips"`
	Ladder      []float64 `json:"rate_ladder_per_s"`
	StepSeconds float64   `json:"ladder_step_s"` // how long each ladder step lasts in a pass
	Reference   float64   `json:"reference_rate_per_s"`
	P99Limit    float64   `json:"p99_limit_ms"`
	TimeoutMS   int       `json:"timeout_ms"`
}

// reportClient is one simulated Ramsey client of the report workload.
type reportClient struct {
	id, infra string
	rate      float64 // useful integer ops per second
	state     []byte  // pre-generated N=17 coloring
	conflicts int
	// workID is written by the collector and read by the pacer.
	workID  atomic.Uint64
	reports int64
}

// reportBench is an open loop of scheduler reports: one goroutine sends
// sched.MsgReport on a fixed schedule through wire.Client.Go, routed by
// the gossip-published scale.Ring to a sharded scheduler, and collects
// the replies in the same loop.
type reportBench struct {
	spec    reportSpec
	clients []*reportClient
	order   []int // seeded report order; clients take turns round-robin
	next    int
	rng     *rand.Rand
	f       *fleet
	e       *env

	invalid  int
	newWork  int64
	shed     int64
	replies  int64
	firstErr string
}

func newReport(s reportSpec, seed int64) *reportBench {
	rng := rand.New(rand.NewSource(seed))
	b := &reportBench{spec: s, rng: rng}
	profiles := grid.SC98Profiles()
	hosts := 0
	for _, p := range profiles {
		hosts += p.Hosts
	}
	for i := 0; i < s.Clients; i++ {
		// The infrastructure mix follows the SC98 host counts; per-host
		// speed is the profile's lognormal draw, and Java applets are
		// mostly interpreted, slow enough for the scheduler to migrate
		// their work.
		pick := rng.Intn(hosts)
		p := profiles[0]
		for _, q := range profiles {
			if pick < q.Hosts {
				p = q
				break
			}
			pick -= q.Hosts
		}
		rate := p.OpsPerSec * math.Exp(rng.NormFloat64()*p.SpeedJitter)
		if p.Name == grid.InfraJava && rng.Float64() >= p.JITFraction {
			rate = grid.JavaInterpretedOpsPerSec
		}
		col := ramsey.RandomColoring(problemN, rng)
		b.clients = append(b.clients, &reportClient{
			id:        fmt.Sprintf("client-%04d", i),
			infra:     string(p.Name),
			rate:      rate,
			state:     col.Encode(),
			conflicts: ramsey.CountMonoCliques(col, problemK, nil),
		})
	}
	b.order = rng.Perm(s.Clients)
	return b
}

func (b *reportBench) loop() string {
	return fmt.Sprintf("open: rate ladder %v/s, %d clients", b.spec.Ladder, b.spec.Clients)
}

func (b *reportBench) fleetOf() *fleet { return b.f }

func (b *reportBench) start(e *env) error {
	b.e = e
	b.f = newFleet(e)
	if err := b.f.startLog(); err != nil {
		return err
	}
	if err := b.f.startGossips(b.spec.Gossips); err != nil {
		return err
	}
	if err := b.f.waitClique(10 * time.Second); err != nil {
		return err
	}
	if err := b.f.startScheds(b.spec.Shards, 0, nil); err != nil {
		return err
	}
	if err := b.f.waitRing(10 * time.Second); err != nil {
		return err
	}
	// Readiness ends with the first report answered.
	return b.burst(b.order[:1])
}

func (b *reportBench) close() {
	if b.f != nil {
		b.f.close()
	}
}

// warm registers every client and gives each a forecast: two passes of
// one report per client, so the decision scans its full working set from
// the first measured report on.
func (b *reportBench) warm() error {
	for pass := 0; pass < 2; pass++ {
		if err := b.burst(b.order); err != nil {
			return err
		}
	}
	return nil
}

// burst sends one report per listed client, pipelined, and waits for all.
func (b *reportBench) burst(idx []int) error {
	calls := make([]*wire.PendingCall, len(idx))
	for i, ci := range idx {
		_, calls[i] = b.send(b.clients[ci], wire.TraceContext{})
	}
	for i, ci := range idx {
		resp, err := calls[i].Wait()
		if !b.receive(b.clients[ci], resp, err) {
			return fmt.Errorf("warm-up report failed: %s", b.firstErr)
		}
	}
	return nil
}

// report builds c's next progress report.
func (b *reportBench) report(c *reportClient) sched.Report {
	elapsed := 0.5 + b.rng.Float64()
	c.reports++
	return sched.Report{
		ClientID:   c.id,
		Infra:      c.infra,
		WorkID:     c.workID.Load(),
		Ops:        int64(c.rate * elapsed),
		ElapsedSec: elapsed,
		Conflicts:  c.conflicts,
		Iterations: c.reports,
		State:      c.state,
	}
}

// send issues c's next report to the shard the ring routes it to.
func (b *reportBench) send(c *reportClient, tc wire.TraceContext) (string, *wire.PendingCall) {
	req := wire.NewRequest(sched.MsgReport, b.report(c))
	req.Trace = tc
	route := b.f.router.Route(c.id, 1)
	if len(route) == 0 {
		req.Release()
		return "", failedCall(errors.New("no scheduler ring"))
	}
	return route[0], b.f.client.Go(route[0], req, time.Duration(b.spec.TimeoutMS)*time.Millisecond)
}

// failedCall is a completed call carrying err.
func failedCall(err error) *wire.PendingCall {
	pc := &wire.PendingCall{Err: err, Done: make(chan *wire.PendingCall, 1)}
	pc.Done <- pc
	return pc
}

// receive checks one reply: it must decode to a valid directive, and
// new work must match the configured problem. It reports whether the op
// succeeded; a shed report or a transport failure is a failed op, an
// invalid directive a correctness error.
func (b *reportBench) receive(c *reportClient, resp *wire.Packet, err error) bool {
	if err != nil {
		b.fail(err.Error())
		return false
	}
	var dr sched.Directive
	err = resp.Decode(&dr)
	resp.Release()
	b.replies++
	if err != nil {
		b.invalid++
		b.fail("undecodable directive: " + err.Error())
		return false
	}
	switch dr.Kind {
	case sched.DirContinue:
		if dr.Steps <= 0 {
			b.invalid++
			b.fail(fmt.Sprintf("continue directive with %d steps", dr.Steps))
			return false
		}
	case sched.DirNewWork:
		w := dr.Work
		if w.ID == 0 || w.N != problemN || w.K != problemK || w.Steps <= 0 || !knownHeuristic(w.Heuristic) {
			b.invalid++
			b.fail(fmt.Sprintf("new work unit %+v does not match N=%d K=%d", w, problemN, problemK))
			return false
		}
		b.newWork++
		c.workID.Store(w.ID)
	case sched.DirShed:
		b.shed++
		b.fail("report shed")
		return false
	default:
		b.invalid++
		b.fail(fmt.Sprintf("directive kind %d", dr.Kind))
		return false
	}
	return true
}

func (b *reportBench) fail(msg string) {
	if b.firstErr == "" {
		b.firstErr = msg
	}
}

func knownHeuristic(h string) bool {
	for _, k := range ramsey.Heuristics() {
		if string(k) == h {
			return true
		}
	}
	return false
}

// inflight is one sent report awaiting its reply.
type inflight struct {
	c    *reportClient
	pc   *wire.PendingCall
	op   int
	root wire.TraceContext
	addr string
}

// schedule returns the due times of an open loop at rate for d, offset
// by at.
func schedule(rate float64, d, at time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = at + time.Duration(float64(i)/rate*float64(time.Second))
	}
	return due
}

// reportRounds is how many times a plain run alternates a reference
// window with a ladder pass. Op latency, CPU per op and capacity are
// medians over the rounds, so one stall (a GC, the scheduler's periodic
// median refresh, a noisy neighbour) moves one round, not the result.
const reportRounds = 4

// measure alternates reference-rate windows with passes up the rate
// ladder, or, for a traced run's phases, holds the reference rate alone:
// per-layer figures come from a steady load, not from overload.
func (b *reportBench) measure(d time.Duration, steady bool) (*phase, error) {
	ph := newPhase()
	ph.from = b.e.now()
	add := func(ops []openOp, window bool) latencies {
		var lat latencies
		for _, o := range ops {
			ph.attempted++
			ph.late = append(ph.late, o.lateMS())
			if o.failed {
				ph.failed++
				continue
			}
			if window {
				lat = append(lat, o.latencyMS())
			}
		}
		ph.ops = append(ph.ops, lat...)
		return lat
	}
	if steady {
		ops, _, err := b.run([]float64{b.spec.Reference}, d)
		if err != nil {
			return nil, err
		}
		add(ops, true)
		ph.to = b.e.now()
		ph.throughput = float64(ph.completed()) / (ph.to - ph.from).Seconds()
		b.directiveMix(ph)
		return ph, nil
	}

	// Each round is a reference window, then one pass up the ladder.
	stepLen := time.Duration(b.spec.StepSeconds * float64(time.Second))
	round := d / reportRounds
	refLen := round - stepLen*time.Duration(len(b.spec.Ladder))
	if refLen < round/4 {
		return nil, fmt.Errorf("%d rounds of %v leave no room for the reference window beside a %d-step ladder", reportRounds, round, len(b.spec.Ladder))
	}
	var passes [][]ladderStep
	for r := 0; r < reportRounds; r++ {
		cpu0 := procCPU()
		ops, _, err := b.run([]float64{b.spec.Reference}, refLen)
		if err != nil {
			return nil, err
		}
		cpu := procCPU().sub(cpu0)
		lat := add(ops, true)
		ph.cpuWindows = append(ph.cpuWindows, cpuWindow{cpu, len(lat)})

		ops, steps, err := b.run(b.spec.Ladder, stepLen)
		if err != nil {
			return nil, err
		}
		add(ops, false)
		passes = append(passes, steps)
		ph.info = append(ph.info, fmt.Sprintf("round %d: reference %.1f us CPU/op (%.1f user); %s", r+1,
			us(cpu.total())/float64(max(len(lat), 1)), us(cpu.user)/float64(max(len(lat), 1)), stepsLine(steps)))
	}
	ph.to = b.e.now()
	steps := medianSteps(passes, b.spec.P99Limit)
	c, saturated := capacity(steps, b.spec.P99Limit)
	ph.throughput = c
	ph.extra["capacity_per_s"] = metric{c, "1/s"}
	ph.info = append(ph.info, "ladder, median over rounds: "+stepsLine(steps))
	if saturated {
		ph.info = append(ph.info, "capacity_per_s: every ladder step passed; capacity is at least the top rate")
	}
	if c == 0 {
		// A performance outcome, not an output error: the run stays correct.
		ph.info = append(ph.info, fmt.Sprintf("capacity_per_s: the lowest ladder rate already missed the %.0f ms p99 limit", b.spec.P99Limit))
	}
	b.directiveMix(ph)
	return ph, nil
}

// stepsLine renders a ladder pass for the run's log.
func stepsLine(steps []ladderStep) string {
	var sb strings.Builder
	for i, s := range steps {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%.0f/s p50 %.3f p99 %.3f backlog %d", s.Rate, s.P50, s.P99, s.Backlog)
		if !s.Pass {
			sb.WriteString(" FAIL")
		}
	}
	return sb.String()
}

// directiveMix records the directive shares and any invalid directive.
func (b *reportBench) directiveMix(ph *phase) {
	if b.invalid > 0 {
		ph.checks = append(ph.checks, fmt.Sprintf("%d invalid directives, first: %s", b.invalid, b.firstErr))
	}
	if b.replies > 0 {
		ph.layer["sched.new_work_share"] = float64(b.newWork) / float64(b.replies)
		ph.layer["sched.shed_share"] = float64(b.shed) / float64(b.replies)
	}
}

// run drives the open loop through rates in order, stepLen at each, and
// judges each step against the p99 limit. A step must last long enough
// for overload to show: past capacity the backlog, and so the latency
// from due time, grows for as long as the step lasts.
func (b *reportBench) run(rates []float64, stepLen time.Duration) ([]openOp, []ladderStep, error) {
	var due []time.Duration
	var stepOf []int
	stepEnd := make([]time.Duration, len(rates))
	at := b.e.now()
	for i, r := range rates {
		for _, t := range schedule(r, stepLen, at) {
			due = append(due, t)
			stepOf = append(stepOf, i)
		}
		at += stepLen
		stepEnd[i] = at
	}
	ops, err := b.openLoop(due)
	if err != nil {
		return nil, nil, err
	}
	steps := make([]ladderStep, len(rates))
	lat := make([]latencies, len(rates))
	for i, o := range ops {
		s := &steps[stepOf[i]]
		s.Samples++
		if o.done > stepEnd[stepOf[i]] {
			s.Backlog++
		}
		if o.failed {
			s.Failed++
			continue
		}
		lat[stepOf[i]] = append(lat[stepOf[i]], o.latencyMS())
	}
	for i := range steps {
		steps[i].Rate = rates[i]
		sorted := lat[i].sorted()
		steps[i].P50, _ = percentile(sorted, 0.5)
		steps[i].P99, steps[i].Supported = percentile(sorted, 0.99)
		steps[i].judge(b.spec.P99Limit)
	}
	return ops, steps, nil
}

// openLoop sends one report at each due time and collects every reply,
// with two goroutines: this one paces the sends and a collector waits for
// replies, so neither delays the other's timestamps.
func (b *reportBench) openLoop(due []time.Duration) ([]openOp, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	ops := make([]openOp, len(due))
	// Sized beyond the wire window of both connections, so the pacer
	// never waits for the collector.
	sent := make(chan inflight, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.collect(sent, ops)
	}()
	rec := b.e.rec
	for next := range due {
		if err = pace.sleep(due[next] - b.e.now()); err != nil {
			break
		}
		c := b.clients[b.order[b.next]]
		b.next = (b.next + 1) % len(b.order)
		var root wire.TraceContext
		if rec != nil {
			root = wire.TraceContext{TraceID: rec.ids.Add(1), SpanID: rec.ids.Add(1), Sampled: true}
			root.ParentID = root.TraceID
		}
		ops[next].due = due[next]
		ops[next].sent = b.e.now()
		addr, pc := b.send(c, root)
		sent <- inflight{c: c, pc: pc, op: next, root: root, addr: addr}
	}
	close(sent)
	<-done
	return ops, err
}

// collect waits for every sent report's reply. Replies on one connection
// come back in order, so it waits on the oldest call of each shard.
func (b *reportBench) collect(sent <-chan inflight, ops []openOp) {
	var queues [][]inflight
	shard := make(map[string]int)
	rec := b.e.rec
	pending := 0
	for sent != nil || pending > 0 {
		// The spec allows at most two shards (checked in newReport).
		var heads [2]chan *wire.PendingCall
		for i, q := range queues {
			if len(q) > 0 {
				heads[i] = q[0].pc.Done
			}
		}
		var pc *wire.PendingCall
		got := 0
		select {
		case fl, ok := <-sent:
			if !ok {
				sent = nil
				continue
			}
			i, known := shard[fl.addr]
			if !known {
				i = len(queues)
				shard[fl.addr] = i
				queues = append(queues, nil)
			}
			queues[i] = append(queues[i], fl)
			pending++
			continue
		case pc = <-heads[0]:
		case pc = <-heads[1]:
			got = 1
		}
		now := b.e.now()
		fl := queues[got][0]
		queues[got] = queues[got][1:]
		pending--
		o := &ops[fl.op]
		o.done = now
		o.failed = !b.receive(fl.c, pc.Resp, pc.Err)
		if rec != nil {
			rec.add(span{Trace: fl.root.TraceID, ID: fl.root.TraceID, Name: "op.report", Service: "gen", Start: int64(o.due), End: int64(now)})
			rec.add(span{Trace: fl.root.TraceID, ID: rec.ids.Add(1), Parent: fl.root.TraceID, Name: "gen.late", Service: "gen", Start: int64(o.due), End: int64(o.sent)})
			rec.add(span{Trace: fl.root.TraceID, ID: fl.root.SpanID, Parent: fl.root.TraceID, Name: "bench.wire.go", Service: "client", Start: int64(o.sent), End: int64(now)})
		}
	}
}

func (b *reportBench) verify() []string { return nil }

// trees returns each op's tree, rooted at its op.report span.
func (b *reportBench) trees(forest map[uint64]*node, idx spanIndex) []*node {
	var out []*node
	for _, s := range idx.named("op.report") {
		out = append(out, forest[s.ID])
	}
	return out
}

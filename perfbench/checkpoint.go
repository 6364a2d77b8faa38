package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"everyware/internal/pstate"
	"everyware/internal/ramsey"
	"everyware/internal/sched"
	"everyware/internal/wire"
)

// checkpointSpec sizes the checkpoint workload.
type checkpointSpec struct {
	Workers      int   `json:"workers"`
	Guests       int   `json:"guests_per_worker"`
	Replicas     int   `json:"replicas"`
	WriteQuorum  int   `json:"write_quorum"`
	Steps        int64 `json:"steps_per_cycle"`
	RecoverOneIn int   `json:"recover_one_in"`
	WarmPasses   int   `json:"warm_passes"`
	// Heuristic is the one search every guest runs; SampleEdges is how
	// many candidate edges a search step weighs.
	Heuristic   ramsey.Heuristic `json:"heuristic"`
	SampleEdges int              `json:"sample_edges"`
}

// guest is one Condor-style Ramsey runner and its checkpoint record.
type guest struct {
	name   string // checkpoint object name
	runner *sched.Runner
	tracer *tracer // nil when untraced
	// acked is the version of the guest's last acknowledged checkpoint.
	acked uint64
}

// checkpointBench is a closed loop: each worker cycles round-robin
// through its guests; one op is Runner.Cycle followed by a quorum write
// of the guest's coloring, ending at the quorum ack. A seeded share of
// ops first recovers the guest from its checkpoint (a reclamation).
type checkpointBench struct {
	spec    checkpointSpec
	seed    int64
	f       *fleet
	e       *env
	bench   wire.Tracer
	workers []*ckWorker
}

type ckWorker struct {
	rs     *pstate.ReplicaSet
	guests []*guest
	rng    *rand.Rand
	next   int
}

func newCheckpoint(s checkpointSpec, seed int64) *checkpointBench {
	return &checkpointBench{spec: s, seed: seed}
}

func (b *checkpointBench) loop() string {
	return fmt.Sprintf("closed: %d workers x %d guests, %d replicas W=%d", b.spec.Workers, b.spec.Guests, b.spec.Replicas, b.spec.WriteQuorum)
}

func (b *checkpointBench) fleetOf() *fleet { return b.f }

func (b *checkpointBench) close() {
	if b.f != nil {
		b.f.close()
	}
}

func (b *checkpointBench) start(e *env) error {
	b.e = e
	b.f = newFleet(e)
	b.bench = e.tracer("bench")
	if err := b.f.startLog(); err != nil {
		return err
	}
	if err := b.f.startGossips(1); err != nil {
		return err
	}
	if err := b.f.waitClique(10 * time.Second); err != nil {
		return err
	}
	// Every guest runs one heuristic (tabu, as the Condor example's guests
	// do): with mixed heuristics the schedulers keep migrating the guests
	// whose heuristic reports a low op rate, and throughput drifts for
	// minutes while the fleet sorts itself onto the fast one.
	if err := b.f.startScheds(2, b.spec.Steps, []ramsey.Heuristic{b.spec.Heuristic}); err != nil {
		return err
	}
	if err := b.f.startPStates(b.spec.Replicas, "ck"); err != nil {
		return err
	}
	if err := b.f.waitRing(10 * time.Second); err != nil {
		return err
	}
	var scheds []string
	for _, s := range b.f.scheds {
		scheds = append(scheds, s.Addr())
	}
	for w := 0; w < b.spec.Workers; w++ {
		rs, err := pstate.NewReplicaSet(b.f.client, pstate.ReplicaSetConfig{
			Addrs:       b.f.pstateAddrs(),
			WriteQuorum: b.spec.WriteQuorum,
			Metrics:     b.f.metrics,
			Tracer:      e.tracer(fmt.Sprintf("replicas%d", w)),
		})
		if err != nil {
			return err
		}
		wk := &ckWorker{rs: rs, rng: rand.New(rand.NewSource(b.seed*7919 + int64(w)))}
		for i := 0; i < b.spec.Guests; i++ {
			id := fmt.Sprintf("guest-%d-%03d", w, i)
			g := &guest{name: "checkpoint/" + id}
			cfg := sched.RunnerConfig{
				ClientID:   id,
				Infra:      "condor",
				Schedulers: scheds,
				// Sampled candidate edges bound a step's cost the same for
				// every heuristic, as the Condor example runs its guests.
				SampleEdges: b.spec.SampleEdges,
				Router:      b.f.router,
				Metrics:     b.f.metrics,
			}
			if e.rec != nil {
				g.tracer = e.rec.tracer("runner")
				cfg.Tracer = g.tracer
			}
			if g.runner, err = sched.NewRunner(cfg, b.f.client); err != nil {
				return err
			}
			wk.guests = append(wk.guests, g)
		}
		b.workers = append(b.workers, wk)
	}
	// Readiness ends with the first checkpoint acknowledged: the first
	// guest's bootstrap cycle, a work cycle and its quorum write.
	g := b.workers[0].guests[0]
	if _, err := g.runner.Cycle(); err != nil {
		return err
	}
	_, err := b.workers[0].op(b, g, false, nil)
	return err
}

// warm bootstraps every guest and gives each a first checkpoint, so every
// op of the measured phase is a work cycle on an existing object.
func (b *checkpointBench) warm() error {
	return b.eachWorker(func(_ int, wk *ckWorker) error {
		for _, g := range wk.guests {
			if g.runner.Work().ID == 0 {
				if _, err := g.runner.Cycle(); err != nil {
					return err
				}
			}
		}
		// Further passes let the schedulers' rate forecasts settle: until
		// they do, migrations hand out new units whose searchers are
		// costly to build, and throughput climbs through the run.
		for pass := 0; pass < b.spec.WarmPasses; pass++ {
			for _, g := range wk.guests {
				if _, err := wk.op(b, g, false, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// eachWorker runs fn on every worker, each in its own goroutine (the
// load's client goroutines, one per worker), and waits for all.
func (b *checkpointBench) eachWorker(fn func(int, *ckWorker) error) error {
	errs := make([]error, len(b.workers))
	var wg sync.WaitGroup
	for i, wk := range b.workers {
		wg.Add(1)
		go func(i int, wk *ckWorker) {
			defer wg.Done()
			errs[i] = fn(i, wk)
		}(i, wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ckTally is one worker's record of the measured phase.
type ckTally struct {
	ops, reads        latencies
	attempted, failed int64
	newWork, shed     int64
	cycles            int64
	intOps            int64
	checks            []string
}

// op runs one checkpoint op on g: optionally recover it first, then one
// cycle and the quorum write. It returns the recover read's latency (0
// without one).
func (wk *ckWorker) op(b *checkpointBench, g *guest, reclaim bool, t *ckTally) (time.Duration, error) {
	root := wire.StartSpan(b.bench, "op.checkpoint", wire.TraceContext{})
	defer root.End("ok")
	var read time.Duration
	if reclaim {
		sp := wire.StartSpan(b.bench, "bench.pstate.fetch", root.Context())
		t0 := time.Now()
		o, found, err := wk.rs.FetchCtx(sp.Context(), g.name)
		read = time.Since(t0)
		sp.End("ok")
		if err != nil {
			return 0, fmt.Errorf("recover %s: %w", g.name, err)
		}
		switch {
		case !found:
			t.checks = append(t.checks, fmt.Sprintf("recover %s: acked checkpoint v%d not found", g.name, g.acked))
		case o.Version < g.acked:
			t.checks = append(t.checks, fmt.Sprintf("recover %s: read v%d, older than acked v%d", g.name, o.Version, g.acked))
		default:
			col, err := ramsey.DecodeColoring(o.Data)
			if err != nil {
				t.checks = append(t.checks, fmt.Sprintf("recover %s: %v", g.name, err))
			} else if err := g.runner.RestoreState(col); err != nil {
				return read, err
			}
		}
	}

	sp := wire.StartSpan(b.bench, "bench.runner.cycle", root.Context())
	if g.tracer != nil {
		g.tracer.adopt = sp.Context()
	}
	ops0 := g.runner.Ops().Total()
	dr, err := g.runner.Cycle()
	if g.tracer != nil {
		g.tracer.adopt = wire.TraceContext{}
	}
	sp.End("ok")
	if err != nil {
		return read, fmt.Errorf("cycle %s: %w", g.name, err)
	}
	if t != nil {
		t.cycles++
		t.intOps += g.runner.Ops().Total() - ops0
		switch dr.Kind {
		case sched.DirNewWork:
			t.newWork++
		case sched.DirShed:
			t.shed++
		}
	}

	best, _ := g.runner.BestState()
	if best == nil {
		return read, fmt.Errorf("cycle %s: no search state to checkpoint", g.name)
	}
	sp = wire.StartSpan(b.bench, "bench.pstate.store", root.Context())
	ver, err := wk.rs.StoreCtx(sp.Context(), g.name, "", best.Encode())
	sp.End("ok")
	if err != nil {
		return read, fmt.Errorf("checkpoint %s: %w", g.name, err)
	}
	g.acked = ver
	return read, nil
}

// ckWindows is how many windows a measured phase is split into: op
// latency, CPU per op and ops_per_s are medians over them, so one slow
// stretch of the disk moves one window, not the result.
const ckWindows = 5

func (b *checkpointBench) measure(d time.Duration, _ bool) (*phase, error) {
	ph := newPhase()
	ph.from = b.e.now()
	var all []*ckTally
	var rates []float64
	for w := 0; w < ckWindows; w++ {
		tallies := make([]*ckTally, len(b.workers))
		cpu0, t0 := procCPU(), time.Now()
		end := t0.Add(d / ckWindows)
		err := b.eachWorker(func(i int, wk *ckWorker) error {
			t := &ckTally{}
			tallies[i] = t
			for time.Now().Before(end) {
				g := wk.guests[wk.next]
				wk.next = (wk.next + 1) % len(wk.guests)
				reclaim := wk.rng.Intn(b.spec.RecoverOneIn) == 0
				start := time.Now()
				read, err := wk.op(b, g, reclaim, t)
				t.attempted++
				if err != nil {
					// A failed op (including a write that was only
					// spooled) counts against ok_share; the loop goes on.
					t.failed++
					continue
				}
				t.ops = append(t.ops, ms(time.Since(start)))
				if reclaim {
					t.reads = append(t.reads, ms(read))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		elapsed, cpu := time.Since(t0), procCPU().sub(cpu0)
		var win latencies
		for _, t := range tallies {
			win = append(win, t.ops...)
		}
		ph.windows = append(ph.windows, win)
		ph.cpuWindows = append(ph.cpuWindows, cpuWindow{cpu, len(win)})
		rates = append(rates, float64(len(win))/elapsed.Seconds())
		all = append(all, tallies...)
		sorted := win.sorted()
		p50, _ := percentile(sorted, 0.5)
		p99, _ := percentile(sorted, 0.99)
		var cycles, fresh int64
		for _, t := range tallies {
			cycles, fresh = cycles+t.cycles, fresh+t.newWork
		}
		ph.info = append(ph.info, fmt.Sprintf("window %d: %.1f ops/s, p50 %.3f ms, p99 %.3f ms, %.0f us CPU/op (%.0f user), new work %.2f",
			w+1, rates[w], p50, p99, us(cpu.total())/float64(max(len(win), 1)), us(cpu.user)/float64(max(len(win), 1)), float64(fresh)/float64(max(cycles, 1))))
	}
	ph.to = b.e.now()
	var cycles, intOps, newWork, shed int64
	for _, t := range all {
		ph.ops = append(ph.ops, t.ops...)
		ph.reads = append(ph.reads, t.reads...)
		ph.attempted += t.attempted
		ph.failed += t.failed
		ph.checks = append(ph.checks, t.checks...)
		cycles += t.cycles
		intOps += t.intOps
		newWork += t.newWork
		shed += t.shed
	}
	ph.throughput = median(rates)
	sorted := ph.reads.sorted()
	ph.extra["read_samples"] = metric{float64(len(sorted)), "count"}
	for _, q := range []struct {
		name string
		q    float64
	}{{"read_p50_ms", 0.5}, {"read_p99_ms", 0.99}} {
		if v, ok := percentile(sorted, q.q); ok {
			ph.extra[q.name] = metric{v, "ms"}
		} else {
			ph.info = append(ph.info, fmt.Sprintf("%s not reported: %d recover reads leave fewer than %d beyond it", q.name, len(sorted), minBeyond))
		}
	}
	if cycles > 0 {
		ph.layer["sched.new_work_share"] = float64(newWork) / float64(cycles)
		ph.layer["sched.shed_share"] = float64(shed) / float64(cycles)
	}
	ph.layer["ramsey.int_ops"] = float64(intOps)
	ph.layer["pstate.quorum_ops"] = float64(ph.attempted + int64(len(ph.reads)))
	return ph, nil
}

// verify reads every guest's checkpoint back through a quorum: none of
// the acknowledged checkpoints may be lost or older than acknowledged,
// and every object must decode as a coloring.
func (b *checkpointBench) verify() []string {
	var checks []string
	for _, wk := range b.workers {
		for _, g := range wk.guests {
			if g.acked == 0 {
				continue
			}
			o, found, err := wk.rs.Fetch(g.name)
			switch {
			case err != nil:
				checks = append(checks, fmt.Sprintf("final read %s: %v", g.name, err))
			case !found:
				checks = append(checks, fmt.Sprintf("final read %s: acked v%d lost", g.name, g.acked))
			case o.Version < g.acked:
				checks = append(checks, fmt.Sprintf("final read %s: v%d older than acked v%d", g.name, o.Version, g.acked))
			default:
				if _, err := ramsey.DecodeColoring(o.Data); err != nil {
					checks = append(checks, fmt.Sprintf("final read %s: %v", g.name, err))
				}
			}
		}
	}
	return checks
}

func (b *checkpointBench) trees(forest map[uint64]*node, idx spanIndex) []*node {
	var out []*node
	for _, s := range idx.named("op.checkpoint") {
		out = append(out, forest[s.ID])
	}
	return out
}

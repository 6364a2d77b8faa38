package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// phase is one measured window of a workload.
type phase struct {
	// from and to bound the window on the env's clock.
	from, to time.Duration
	// ops holds the latency of every op that succeeded, in ms; late the
	// open-loop generator's lateness per op; reads the recover reads.
	ops, late, reads  latencies
	attempted, failed int64
	// windows, when set, split ops into repeated measurement windows:
	// op_p50_ms and op_p99_ms are then the medians of the windows'
	// percentiles. cpuWindows likewise hold each window's CPU and ops,
	// and the CPU-per-op metrics are the medians over them.
	windows    []latencies
	cpuWindows []cpuWindow
	// throughput is the workload's ops_per_s (see workloads.json).
	throughput float64
	checks     []string
	info       []string
	extra      map[string]metric
	// layer holds per-layer values only the workload can count.
	layer map[string]float64

	cpu        cpuTime
	heapPeak   uint64
	rt         runtimeSample
	bytes      int64
	logAppends int64
	counts     tally
}

func newPhase() *phase {
	return &phase{extra: make(map[string]metric), layer: make(map[string]float64)}
}

// completed is the number of ops that succeeded.
func (p *phase) completed() int64 { return p.attempted - p.failed }

// measurePhase runs w.measure for d with the process and fleet counters
// read around it.
func measurePhase(w workload, e *env, d time.Duration, steady bool) (*phase, error) {
	f := w.fleetOf()
	if e.rec != nil {
		e.rec.reset()
	}
	before := takeTally(f.registries())
	var logs0 int64
	if f.logs != nil {
		logs0, _ = f.logs.Stats()
	}
	bytes0 := e.tr.written.Load()
	rt0 := readRuntime()
	cpu0 := procCPU()
	heap := sampleHeap()

	ph, err := w.measure(d, steady)
	peak := heap.done()
	if err != nil {
		return nil, err
	}
	ph.cpu = procCPU().sub(cpu0)
	rt1 := readRuntime()
	ph.rt = runtimeSample{allocs: rt1.allocs - rt0.allocs, gcCPU: rt1.gcCPU - rt0.gcCPU}
	ph.heapPeak = peak
	ph.bytes = e.tr.written.Load() - bytes0
	if f.logs != nil {
		logs1, _ := f.logs.Stats()
		ph.logAppends = logs1 - logs0
	}
	ph.counts = takeTally(f.registries()).since(before)
	return ph, nil
}

// startWorkload builds a fresh workload and its daemons.
func startWorkload(s *spec, name string, seed int64, e *env) (workload, time.Duration, error) {
	w, err := newWorkload(name, s, seed)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := w.start(e); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s setup: %w", name, err)
	}
	return w, time.Since(t0), nil
}

func newEnv(dataDir string, rec *recorder) *env {
	e := &env{tr: &countingTransport{}, dataDir: dataDir, rec: rec, origin: time.Now()}
	if rec != nil {
		e.origin = rec.origin
	}
	return e
}

// plainRun is the untraced run: set the daemons up several times for
// setup_s, then measure on the last set.
func plainRun(s *spec, name string, seed int64, d time.Duration, dataDir string) (*runOut, error) {
	var setups []float64
	var w workload
	var e *env
	for i := 0; i < s.SetupRepeats; i++ {
		e = newEnv(filepath.Join(dataDir, fmt.Sprintf("setup%d", i)), nil)
		var took time.Duration
		var err error
		w, took, err = startWorkload(s, name, seed, e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < s.SetupRepeats-1 {
			w.close()
		}
	}
	defer w.close()
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ph, err := measurePhase(w, e, d, false)
	if err != nil {
		return nil, err
	}
	out := &runOut{
		loop:      w.loop(),
		attempted: ph.attempted,
		failed:    ph.failed,
		extra:     ph.extra,
		info:      ph.info,
		checks:    append(ph.checks, w.verify()...),
	}
	out.info = append(out.info, fmt.Sprintf("setup_s each: %.4f", setups))
	var checks []string
	out.metrics, checks = endToEnd(ph, median(setups))
	out.checks = append(out.checks, checks...)
	return out, nil
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(ph *phase, setup float64) (map[string]metric, []string) {
	var checks []string
	windows := ph.windows
	if len(windows) == 0 {
		windows = []latencies{ph.ops}
	}
	var p50s, p99s []float64
	for _, w := range windows {
		sorted := w.sorted()
		p50, ok50 := percentile(sorted, 0.50)
		p99, ok99 := percentile(sorted, 0.99)
		if !ok50 || !ok99 {
			checks = append(checks, fmt.Sprintf("a window of op latency has %d samples; p99 needs %d beyond it", len(sorted), minBeyond))
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	done := ph.completed()
	if done == 0 {
		checks = append(checks, "no op completed")
		done = 1
	}
	cpuWins := ph.cpuWindows
	if len(cpuWins) == 0 {
		cpuWins = []cpuWindow{{ph.cpu, int(done)}}
	}
	var cpus, users []float64
	for _, w := range cpuWins {
		cpus = append(cpus, us(w.cpu.total())/float64(max(w.ops, 1)))
		users = append(users, us(w.cpu.user)/float64(max(w.ops, 1)))
	}
	okShare := 1 - float64(ph.failed)/float64(ph.attempted)
	// Latency, throughput and CPU are printed and recorded but not
	// gated: on a small shared VM they move by a fifth to a half between
	// identical runs (see README.md), far past any bound that would still
	// catch a regression.
	for name, m := range map[string]metric{
		"op_p50_ms":          {median(p50s), "ms"},
		"op_p99_ms":          {median(p99s), "ms"},
		"ops_per_s":          {ph.throughput, "1/s"},
		"cpu_us_per_op":      {median(cpus), "us"},
		"user_cpu_us_per_op": {median(users), "us"},
		"error_rate":         {1 - okShare, "share"},
		"op_samples":         {float64(len(ph.ops)), "count"},
	} {
		ph.extra[name] = m
	}
	return map[string]metric{
		"setup_s":      {setup, "s"},
		"heap_peak_mb": {float64(ph.heapPeak) / 1e6, "MB"},
		"ok_share":     {okShare, "share"},
	}, checks
}

// tracedRun measures a quarter of the time untraced and the rest traced,
// each on a fresh set of daemons, and derives the per-layer metrics from
// the traced phase's spans and the daemons' counters. The untraced phase
// only serves as the op_p50_ms baseline for tracing overhead.
func tracedRun(s *spec, name string, seed int64, d time.Duration, dataDir string) (*runOut, error) {
	quarter := d / 4
	e := newEnv(filepath.Join(dataDir, "untraced"), nil)
	w, _, err := startWorkload(s, name, seed, e)
	if err != nil {
		return nil, err
	}
	if err := w.warm(); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain, err := measurePhase(w, e, quarter, true)
	checks := w.verify()
	w.close()
	if err != nil {
		return nil, err
	}

	rec := newRecorder(time.Now())
	e = newEnv(filepath.Join(dataDir, "traced"), rec)
	w, _, err = startWorkload(s, name, seed, e)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	traced, err := measurePhase(w, e, d-quarter, true)
	if err != nil {
		return nil, err
	}
	checks = append(checks, plain.checks...)
	checks = append(checks, traced.checks...)
	checks = append(checks, w.verify()...)

	spans := rec.all()
	inWindow := spans[:0:0]
	for _, sp := range spans {
		if sp.End >= int64(traced.from) && sp.Start <= int64(traced.to) {
			inWindow = append(inWindow, sp)
		}
	}
	forest := buildForest(inWindow)
	idx := indexSpans(inWindow)
	trees := w.trees(forest, idx)
	vals, lchecks, info := perLayer(s, plain, traced, forest, idx, trees, w.fleetOf())
	checks = append(checks, lchecks...)

	out := &runOut{
		loop:      w.loop(),
		attempted: traced.attempted,
		failed:    traced.failed,
		extra:     traced.extra,
		info:      append(traced.info, info...),
		checks:    checks,
		spans:     rec,
		metrics:   make(map[string]metric),
	}
	for _, row := range s.Layers {
		out.metrics[row.Metric] = metric{vals[row.Metric], row.Unit}
		delete(vals, row.Metric)
	}
	for k := range vals {
		out.checks = append(out.checks, fmt.Sprintf("per-layer metric %s is missing from the layer table", k))
	}
	return out, nil
}

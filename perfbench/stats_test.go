package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// A percentile is reported only with at least ten samples beyond it: p99
// needs 1000 samples, p50 needs 20.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{2000, 0.99, 1980, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %t; want %v, %t", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

// Open-loop latency runs from the due time, so a generator stall is
// charged to every op it delayed, and lateness is reported on its own.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	due := schedule(1000, 5*time.Millisecond, 10*time.Millisecond)
	want := []time.Duration{10, 11, 12, 13, 14}
	if len(due) != len(want) {
		t.Fatalf("schedule gave %d ops, want %d", len(due), len(want))
	}
	for i := range want {
		if due[i] != want[i]*time.Millisecond {
			t.Fatalf("due[%d] = %v, want %v", i, due[i], want[i]*time.Millisecond)
		}
	}
	// The generator stalls until 13ms, then sends the three overdue ops;
	// each takes 1ms of service from its send.
	var ops []openOp
	for _, d := range due {
		sent := d
		if sent < 13*time.Millisecond {
			sent = 13 * time.Millisecond
		}
		ops = append(ops, openOp{due: d, sent: sent, done: sent + time.Millisecond})
	}
	wantLat := []float64{4, 3, 2, 1, 1}
	wantLate := []float64{3, 2, 1, 0, 0}
	for i, o := range ops {
		if got := o.latencyMS(); math.Abs(got-wantLat[i]) > 1e-9 {
			t.Errorf("op %d latency %v ms, want %v", i, got, wantLat[i])
		}
		if got := o.lateMS(); math.Abs(got-wantLate[i]) > 1e-9 {
			t.Errorf("op %d lateness %v ms, want %v", i, got, wantLate[i])
		}
	}
}

func mustCapacity(steps []ladderStep, limit float64) float64 {
	c, _ := capacity(steps, limit)
	return c
}

func TestCapacityInterpolatesAcrossLadder(t *testing.T) {
	const limit = 10.0
	step := func(rate, p99 float64, failed, backlog int) ladderStep {
		s := ladderStep{Rate: rate, P99: p99, Failed: failed, Backlog: backlog, Supported: true}
		s.judge(limit)
		return s
	}
	for _, c := range []struct {
		name      string
		steps     []ladderStep
		want      float64
		saturated bool
	}{
		{"interpolated", []ladderStep{step(1000, 2, 0, 0), step(2000, 4, 0, 0), step(3000, 14, 0, 0)}, 2600, false},
		{"a dip below the highest pass is ignored", []ladderStep{step(1000, 2, 0, 0), step(2000, 12, 0, 0), step(3000, 3, 0, 0), step(4000, 13, 0, 0)}, 3700, false},
		{"failures give no slope", []ladderStep{step(1000, 2, 0, 0), step(2000, 4, 3, 0)}, 1000, false},
		{"backlog fails a step", []ladderStep{step(1000, 2, 0, 0), step(2000, 5, 0, 21)}, 1000, false},
		{"every step passed", []ladderStep{step(1000, 2, 0, 0), step(2000, 4, 0, 20)}, 2000, true},
		{"first step failed", []ladderStep{step(1000, 20, 0, 0)}, 0, false},
	} {
		got, sat := capacity(c.steps, limit)
		if math.Abs(got-c.want) > 1e-9 || sat != c.saturated {
			t.Errorf("%s: capacity = %v (saturated %t), want %v (%t)", c.name, got, sat, c.want, c.saturated)
		}
	}
	// A step whose p99 lacks support cannot pass.
	s := ladderStep{Rate: 1000, P99: 1}
	s.judge(limit)
	if s.Pass {
		t.Error("step passed without enough samples for its p99")
	}

	// Across passes each rate keeps its median p99: a stall in one pass
	// at 2000/s does not end the ladder there.
	passes := [][]ladderStep{
		{step(1000, 2, 0, 0), step(2000, 30, 0, 0), step(3000, 14, 0, 0)},
		{step(1000, 3, 0, 0), step(2000, 4, 0, 0), step(3000, 16, 0, 0)},
		{step(1000, 2, 0, 0), step(2000, 5, 0, 0), step(3000, 12, 0, 0)},
	}
	folded := medianSteps(passes, limit)
	if got, want := mustCapacity(folded, limit), 2000+1000*(limit-5)/(14-5); math.Abs(got-want) > 1e-9 {
		t.Errorf("capacity over the median pass = %v, want %v", got, want)
	}
	if folded[1].P99 != 5 || folded[1].Samples != 0 || !folded[1].Pass {
		t.Errorf("median step at 2000/s = %+v, want p99 5 and a pass", folded[1])
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported percentile must leave above
// it: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// and whether at least minBeyond samples lie above it. A percentile
// without that support is not reported.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// latencies is a set of per-op latencies in milliseconds.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// openOp is one open-loop operation: when the schedule said to send it,
// when the generator actually sent it, and when its reply was observed.
// All three are offsets from the run's clock origin.
type openOp struct {
	due, sent, done time.Duration
	failed          bool
}

// latencyMS is the op's latency measured from its due time, so a stall
// that delays later sends is charged to every op it delayed.
func (o openOp) latencyMS() float64 { return ms(o.done - o.due) }

// lateMS is how late the generator sent the op.
func (o openOp) lateMS() float64 { return ms(o.sent - o.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ladderStep is one offered rate of an open-loop ladder and what it met.
type ladderStep struct {
	Rate float64 // offered, per second
	// P50 and P99 are the step's latencies in ms, from due time.
	P50, P99 float64
	// Samples is the number of ops due in the step.
	Samples int
	// Failed counts ops that errored, timed out or were shed.
	Failed int
	// Backlog is the number of the step's ops still in flight when the
	// step's window closed.
	Backlog int
	// Supported reports that P99 has at least minBeyond samples above it.
	Supported bool
	// Pass reports that the step met the latency limit without failures
	// and without a growing backlog.
	Pass bool
}

// judge decides whether a step passed: a supported p99 within limitMS,
// every op answered, and no more ops in flight at the step's end than the
// rate could drain within the limit (Little's law), which is what a
// backlog that keeps growing violates.
func (s *ladderStep) judge(limitMS float64) {
	drainable := int(math.Ceil(s.Rate * limitMS / 1000))
	s.Pass = s.Supported && s.P99 <= limitMS && s.Failed == 0 && s.Backlog <= drainable
}

// capacity is the highest offered rate of a ladder (in increasing rate
// order) that met limitMS, interpolated toward the failing step above it:
// p99 is taken as linear in rate between the two. A failing step whose
// p99 gives no slope (it failed for errors or backlog) leaves the passing
// rate. A failing step below the highest pass is a dip, not the limit,
// and is ignored. saturated reports that the top step passed, so the
// capacity is at least the ladder's top. With no passing step it is 0.
func capacity(steps []ladderStep, limitMS float64) (rate float64, saturated bool) {
	top := -1
	for i, s := range steps {
		if s.Pass {
			top = i
		}
	}
	switch {
	case top < 0:
		return 0, false
	case top == len(steps)-1:
		return steps[top].Rate, true
	}
	pass, fail := steps[top], steps[top+1]
	if fail.P99 <= limitMS || fail.P99 <= pass.P99 {
		return pass.Rate, false
	}
	frac := (limitMS - pass.P99) / (fail.P99 - pass.P99)
	return pass.Rate + frac*(fail.Rate-pass.Rate), false
}

// medianSteps folds repeated passes up one ladder into one: each rate's
// p50, p99 and backlog are the medians over the passes, and its failures
// their sum. A stall that hits one pass at one rate then does not decide
// the capacity. Every pass must list the same rates in the same order.
func medianSteps(passes [][]ladderStep, limitMS float64) []ladderStep {
	if len(passes) == 0 {
		return nil
	}
	out := make([]ladderStep, len(passes[0]))
	for i := range out {
		var p50, p99, backlog []float64
		s := ladderStep{Rate: passes[0][i].Rate, Supported: true}
		for _, p := range passes {
			p50 = append(p50, p[i].P50)
			p99 = append(p99, p[i].P99)
			backlog = append(backlog, float64(p[i].Backlog))
			s.Samples += p[i].Samples
			s.Failed += p[i].Failed
			s.Supported = s.Supported && p[i].Supported
		}
		s.P50, s.P99, s.Backlog = median(p50), median(p99), int(median(backlog))
		s.judge(limitMS)
		out[i] = s
	}
	return out
}

// median returns the middle of vals (mean of the middle two when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Package forecast implements the EveryWare performance forecasting
// services, borrowed and enhanced from the Network Weather Service (NWS).
//
// The NWS methodology (section 2.2 of the paper, and [38]) applies a set
// of lightweight time-series forecasting methods to a measurement stream
// and dynamically chooses the technique that has yielded the greatest
// forecasting accuracy over time. This package provides the forecaster
// battery, the accuracy-tracking selector, a keyed registry for "dynamic
// benchmarking" of arbitrary tagged program events, and the adaptive
// time-out discovery that the paper found crucial to overall program
// stability.
package forecast

import (
	"fmt"
	"slices"
)

// Method is one lightweight time-series forecasting technique. The
// measurements themselves live in the Selector's History, shared by the
// whole battery; a Method keeps only the running state it cannot recompute
// from the last Window() of them. Implementations are not safe for
// concurrent use; the Selector serializes access.
type Method interface {
	// Name identifies the technique, e.g. "sliding_median_10".
	Name() string
	// Window is how many of the newest measurements the method reads from
	// the History (0 for none); the Selector's ring keeps the battery's
	// largest.
	Window() int
	// Update feeds the next measurement v. h does not yet hold v.
	Update(h *History, v float64)
	// Predict returns the forecast for the next measurement. ok is false
	// until the method has seen enough data to predict.
	Predict(h *History) (v float64, ok bool)
}

// History is one series' ring of recent measurements.
type History struct {
	buf []float64
	n   int // measurements ever pushed
}

// Len reports how many measurements the series has seen.
func (h *History) Len() int { return h.n }

// Back returns the i-th newest measurement; Back(0) is the latest.
func (h *History) Back(i int) float64 { return h.buf[(h.n-1-i)%len(h.buf)] }

// Last appends the newest k measurements (fewer if fewer were seen) to
// dst, oldest first.
func (h *History) Last(dst []float64, k int) []float64 {
	k = min(k, h.n, len(h.buf))
	start := (h.n - k) % len(h.buf)
	if wrap := start + k - len(h.buf); wrap > 0 {
		return append(append(dst, h.buf[start:]...), h.buf[:wrap]...)
	}
	return append(dst, h.buf[start:start+k]...)
}

func (h *History) push(v float64) {
	h.buf[h.n%len(h.buf)] = v
	h.n++
}

// lastValue predicts the most recent measurement.
type lastValue struct{}

// NewLastValue returns the last-value forecaster.
func NewLastValue() Method { return lastValue{} }

func (lastValue) Name() string             { return "last_value" }
func (lastValue) Window() int              { return 1 }
func (lastValue) Update(*History, float64) {}
func (lastValue) Predict(h *History) (float64, bool) {
	if h.Len() == 0 {
		return 0, false
	}
	return h.Back(0), true
}

// runningMean predicts the mean of the entire history.
type runningMean struct{ sum float64 }

// NewRunningMean returns the running (cumulative) mean forecaster.
func NewRunningMean() Method { return &runningMean{} }

func (m *runningMean) Name() string                 { return "running_mean" }
func (m *runningMean) Window() int                  { return 0 }
func (m *runningMean) Update(_ *History, v float64) { m.sum += v }
func (m *runningMean) Predict(h *History) (float64, bool) {
	if h.Len() == 0 {
		return 0, false
	}
	return m.sum / float64(h.Len()), true
}

// slidingMean predicts the mean over the last k measurements.
type slidingMean struct {
	sum float64
	k   int
}

// NewSlidingMean returns a sliding-window mean forecaster over k samples.
func NewSlidingMean(k int) Method { return &slidingMean{k: k} }

func (m *slidingMean) Name() string { return fmt.Sprintf("sliding_mean_%d", m.k) }
func (m *slidingMean) Window() int  { return m.k }
func (m *slidingMean) Update(h *History, v float64) {
	if h.Len() >= m.k {
		m.sum -= h.Back(m.k - 1)
	}
	m.sum += v
}
func (m *slidingMean) Predict(h *History) (float64, bool) {
	n := min(h.Len(), m.k)
	if n == 0 {
		return 0, false
	}
	return m.sum / float64(n), true
}

// sortedLast returns the newest k measurements sorted, in buf when they
// fit. Measurement j starts in slot j%k, as in a ring of its own: one
// slot changes per call, so successive sorts see nearly the same input
// and run faster than on a window shifted by one each time.
func sortedLast(h *History, k int, buf []float64) []float64 {
	k = min(k, h.n, len(h.buf))
	w := append(buf[:0], make([]float64, k)...)
	p, q := (h.n-k)%len(h.buf), (h.n-k)%max(k, 1)
	for range k {
		w[q] = h.buf[p]
		if p++; p == len(h.buf) {
			p = 0
		}
		if q++; q == k {
			q = 0
		}
	}
	slices.Sort(w)
	return w
}

// slidingMedian predicts the median over the last k measurements. Medians
// are the NWS workhorse for noisy Grid measurements because they resist
// the transient spikes that contention produces.
type slidingMedian struct{ k int }

// NewSlidingMedian returns a sliding-window median forecaster over k
// samples.
func NewSlidingMedian(k int) Method { return slidingMedian{k} }

func (m slidingMedian) Name() string             { return fmt.Sprintf("sliding_median_%d", m.k) }
func (m slidingMedian) Window() int              { return m.k }
func (m slidingMedian) Update(*History, float64) {}
func (m slidingMedian) Predict(h *History) (float64, bool) {
	var buf [32]float64
	w := sortedLast(h, m.k, buf[:])
	n := len(w)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return w[n/2], true
	}
	return (w[n/2-1] + w[n/2]) / 2, true
}

// trimmedMean predicts the mean of the central values of the last k
// measurements after discarding the trim fraction at each extreme.
type trimmedMean struct {
	k    int
	trim float64
}

// NewTrimmedMean returns a sliding trimmed-mean forecaster over k samples,
// trimming the given fraction (0..0.5) from each tail.
func NewTrimmedMean(k int, trim float64) Method { return trimmedMean{k, trim} }

func (m trimmedMean) Name() string             { return fmt.Sprintf("trimmed_mean_%d_%g", m.k, m.trim) }
func (m trimmedMean) Window() int              { return m.k }
func (m trimmedMean) Update(*History, float64) {}
func (m trimmedMean) Predict(h *History) (float64, bool) {
	var buf [32]float64
	w := sortedLast(h, m.k, buf[:])
	n := len(w)
	if n == 0 {
		return 0, false
	}
	cut := int(float64(n) * m.trim)
	lo, hi := cut, n-cut
	if lo >= hi { // degenerate: fall back to median
		lo, hi = n/2, n/2+1
	}
	sum := 0.0
	for _, v := range w[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo), true
}

// expSmooth predicts with exponential smoothing: f' = a*v + (1-a)*f.
type expSmooth struct {
	alpha float64
	f     float64
}

// NewExpSmooth returns an exponential smoothing forecaster with gain
// alpha in (0,1].
func NewExpSmooth(alpha float64) Method { return &expSmooth{alpha: alpha} }

func (m *expSmooth) Name() string { return fmt.Sprintf("exp_smooth_%g", m.alpha) }
func (m *expSmooth) Window() int  { return 0 }
func (m *expSmooth) Update(h *History, v float64) {
	if h.Len() == 0 {
		m.f = v
		return
	}
	m.f = m.alpha*v + (1-m.alpha)*m.f
}
func (m *expSmooth) Predict(h *History) (float64, bool) { return m.f, h.Len() > 0 }

// adaptSmooth is exponential smoothing whose gain is nudged up after a
// large error and down after a small one, tracking regime changes faster
// than any fixed alpha.
type adaptSmooth struct {
	alpha float64
	f     float64
}

// NewAdaptSmooth returns the gain-adaptive exponential smoother.
func NewAdaptSmooth() Method { return &adaptSmooth{alpha: 0.2} }

func (m *adaptSmooth) Name() string { return "adaptive_smooth" }
func (m *adaptSmooth) Window() int  { return 0 }
func (m *adaptSmooth) Update(h *History, v float64) {
	if h.Len() == 0 {
		m.f = v
		return
	}
	err := v - m.f
	rel := err
	if m.f != 0 {
		rel = err / m.f
	}
	if rel < 0 {
		rel = -rel
	}
	switch {
	case rel > 0.5 && m.alpha < 0.9:
		m.alpha += 0.1
	case rel < 0.1 && m.alpha > 0.05:
		m.alpha -= 0.05
	}
	m.f = m.alpha*v + (1-m.alpha)*m.f
}
func (m *adaptSmooth) Predict(h *History) (float64, bool) { return m.f, h.Len() > 0 }

// ar1 predicts with a first-order autoregressive model fitted by least
// squares over a sliding window: v' = mean + phi*(v - mean). When the
// series has little serial correlation the model degrades gracefully to
// the window mean.
type ar1 struct{ k int }

// NewAR1 returns a windowed AR(1) forecaster over k samples (k >= 4).
func NewAR1(k int) Method { return ar1{max(k, 4)} }

func (m ar1) Name() string             { return fmt.Sprintf("ar1_%d", m.k) }
func (m ar1) Window() int              { return m.k }
func (m ar1) Update(*History, float64) {}
func (m ar1) Predict(h *History) (float64, bool) {
	var buf [32]float64
	ordered := h.Last(buf[:0], m.k) // lag-1 pairs need arrival order
	n := len(ordered)
	if n == 0 {
		return 0, false
	}
	if n < 4 {
		return ordered[n-1], true
	}
	mean := 0.0
	for _, v := range ordered {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 1; i < n; i++ {
		num += (ordered[i] - mean) * (ordered[i-1] - mean)
	}
	for _, v := range ordered {
		den += (v - mean) * (v - mean)
	}
	phi := 0.0
	if den > 0 {
		phi = num / den
	}
	// Clamp for stability: an explosive fit predicts worse than the mean.
	if phi > 1 {
		phi = 1
	}
	if phi < -1 {
		phi = -1
	}
	p := mean + phi*(ordered[n-1]-mean)
	// Keep the prediction inside the window's observed range; an AR(1)
	// extrapolation beyond it is noise on Grid series.
	lo, hi := ordered[0], ordered[0]
	for _, v := range ordered {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if p < lo {
		p = lo
	}
	if p > hi {
		p = hi
	}
	return p, true
}

// DefaultBattery returns the standard EveryWare forecaster set: the same
// mix of mean-, median-, and smoothing-based predictors the NWS runs.
func DefaultBattery() []Method {
	return []Method{
		NewLastValue(),
		NewRunningMean(),
		NewSlidingMean(5),
		NewSlidingMean(10),
		NewSlidingMean(30),
		NewSlidingMedian(5),
		NewSlidingMedian(11),
		NewSlidingMedian(31),
		NewTrimmedMean(10, 0.25),
		NewTrimmedMean(30, 0.25),
		NewExpSmooth(0.05),
		NewExpSmooth(0.1),
		NewExpSmooth(0.25),
		NewExpSmooth(0.5),
		NewExpSmooth(0.75),
		NewAdaptSmooth(),
		NewAR1(20),
	}
}

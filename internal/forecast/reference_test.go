package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the original battery and selector, in which every
// method owned its own window and every Forecast re-ran each Predict, as
// a reference for the differential test: the shared-history Selector
// must reproduce it bit for bit.

type refMethod interface {
	Name() string
	Update(v float64)
	Predict() (float64, bool)
}

type refWindow struct {
	buf  []float64
	next int
	full bool
}

func (w *refWindow) push(v float64) {
	w.buf[w.next] = v
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

func (w *refWindow) count() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

func (w *refWindow) values() []float64 {
	if w.full {
		return w.buf
	}
	return w.buf[:w.next]
}

type refLastValue struct {
	v    float64
	seen bool
}

func (m *refLastValue) Name() string             { return "last_value" }
func (m *refLastValue) Update(v float64)         { m.v, m.seen = v, true }
func (m *refLastValue) Predict() (float64, bool) { return m.v, m.seen }

type refRunningMean struct {
	sum float64
	n   int
}

func (m *refRunningMean) Name() string { return "running_mean" }
func (m *refRunningMean) Update(v float64) {
	m.sum += v
	m.n++
}
func (m *refRunningMean) Predict() (float64, bool) {
	if m.n == 0 {
		return 0, false
	}
	return m.sum / float64(m.n), true
}

type refSlidingMean struct {
	w   *refWindow
	sum float64
	k   int
}

func (m *refSlidingMean) Name() string { return fmt.Sprintf("sliding_mean_%d", m.k) }
func (m *refSlidingMean) Update(v float64) {
	if m.w.full {
		m.sum -= m.w.buf[m.w.next]
	}
	m.sum += v
	m.w.push(v)
}
func (m *refSlidingMean) Predict() (float64, bool) {
	n := m.w.count()
	if n == 0 {
		return 0, false
	}
	return m.sum / float64(n), true
}

type refSlidingMedian struct {
	w       *refWindow
	k       int
	scratch []float64
}

func (m *refSlidingMedian) Name() string     { return fmt.Sprintf("sliding_median_%d", m.k) }
func (m *refSlidingMedian) Update(v float64) { m.w.push(v) }
func (m *refSlidingMedian) Predict() (float64, bool) {
	n := m.w.count()
	if n == 0 {
		return 0, false
	}
	m.scratch = append(m.scratch[:0], m.w.values()...)
	sort.Float64s(m.scratch)
	if n%2 == 1 {
		return m.scratch[n/2], true
	}
	return (m.scratch[n/2-1] + m.scratch[n/2]) / 2, true
}

type refTrimmedMean struct {
	w       *refWindow
	k       int
	trim    float64
	scratch []float64
}

func (m *refTrimmedMean) Name() string     { return fmt.Sprintf("trimmed_mean_%d_%g", m.k, m.trim) }
func (m *refTrimmedMean) Update(v float64) { m.w.push(v) }
func (m *refTrimmedMean) Predict() (float64, bool) {
	n := m.w.count()
	if n == 0 {
		return 0, false
	}
	m.scratch = append(m.scratch[:0], m.w.values()...)
	sort.Float64s(m.scratch)
	cut := int(float64(n) * m.trim)
	lo, hi := cut, n-cut
	if lo >= hi {
		lo, hi = n/2, n/2+1
	}
	sum := 0.0
	for _, v := range m.scratch[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo), true
}

type refExpSmooth struct {
	alpha float64
	f     float64
	seen  bool
}

func (m *refExpSmooth) Name() string { return fmt.Sprintf("exp_smooth_%g", m.alpha) }
func (m *refExpSmooth) Update(v float64) {
	if !m.seen {
		m.f, m.seen = v, true
		return
	}
	m.f = m.alpha*v + (1-m.alpha)*m.f
}
func (m *refExpSmooth) Predict() (float64, bool) { return m.f, m.seen }

type refAdaptSmooth struct {
	alpha float64
	f     float64
	seen  bool
}

func (m *refAdaptSmooth) Name() string { return "adaptive_smooth" }
func (m *refAdaptSmooth) Update(v float64) {
	if !m.seen {
		m.f, m.seen = v, true
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
func (m *refAdaptSmooth) Predict() (float64, bool) { return m.f, m.seen }

type refAR1 struct {
	k       int
	ordered []float64
}

func (m *refAR1) Name() string { return fmt.Sprintf("ar1_%d", m.k) }
func (m *refAR1) Update(v float64) {
	m.ordered = append(m.ordered, v)
	if len(m.ordered) > m.k {
		m.ordered = m.ordered[len(m.ordered)-m.k:]
	}
}
func (m *refAR1) Predict() (float64, bool) {
	n := len(m.ordered)
	if n == 0 {
		return 0, false
	}
	if n < 4 {
		return m.ordered[n-1], true
	}
	mean := 0.0
	for _, v := range m.ordered {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 1; i < n; i++ {
		num += (m.ordered[i] - mean) * (m.ordered[i-1] - mean)
	}
	for _, v := range m.ordered {
		den += (v - mean) * (v - mean)
	}
	phi := 0.0
	if den > 0 {
		phi = num / den
	}
	if phi > 1 {
		phi = 1
	}
	if phi < -1 {
		phi = -1
	}
	p := mean + phi*(m.ordered[n-1]-mean)
	lo, hi := m.ordered[0], m.ordered[0]
	for _, v := range m.ordered {
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

func refBattery() []refMethod {
	win := func(k int) *refWindow { return &refWindow{buf: make([]float64, k)} }
	mean := func(k int) refMethod { return &refSlidingMean{w: win(k), k: k} }
	median := func(k int) refMethod { return &refSlidingMedian{w: win(k), k: k} }
	trimmed := func(k int) refMethod { return &refTrimmedMean{w: win(k), k: k, trim: 0.25} }
	smooth := func(a float64) refMethod { return &refExpSmooth{alpha: a} }
	return []refMethod{
		&refLastValue{},
		&refRunningMean{},
		mean(5), mean(10), mean(30),
		median(5), median(11), median(31),
		trimmed(10), trimmed(30),
		smooth(0.05), smooth(0.1), smooth(0.25), smooth(0.5), smooth(0.75),
		&refAdaptSmooth{alpha: 0.2},
		&refAR1{k: 20},
	}
}

// refSelector is the original Selector: it scores each method's
// standing prediction on Update and re-runs every Predict on Forecast.
type refSelector struct {
	methods         []refMethod
	sqErr, absErr   []float64
	scored, samples int
}

func newRefSelector() *refSelector {
	b := refBattery()
	return &refSelector{methods: b, sqErr: make([]float64, len(b)), absErr: make([]float64, len(b))}
}

func (s *refSelector) Update(v float64) {
	anyPredicted := false
	for i, m := range s.methods {
		if p, ok := m.Predict(); ok {
			e := p - v
			s.sqErr[i] += e * e
			if e < 0 {
				e = -e
			}
			s.absErr[i] += e
			anyPredicted = true
		}
	}
	if anyPredicted {
		s.scored++
	}
	for _, m := range s.methods {
		m.Update(v)
	}
	s.samples++
}

func (s *refSelector) forecast(useMAE bool) (Forecast, bool) {
	if s.samples == 0 {
		return Forecast{}, false
	}
	best := -1
	bestErr := math.Inf(1)
	for i, m := range s.methods {
		if _, ok := m.Predict(); !ok {
			continue
		}
		e := s.sqErr[i]
		if useMAE {
			e = s.absErr[i]
		}
		if e < bestErr {
			bestErr = e
			best = i
		}
	}
	if best < 0 {
		return Forecast{}, false
	}
	v, _ := s.methods[best].Predict()
	n := float64(max(s.scored, 1))
	return Forecast{
		Value:   v,
		Method:  s.methods[best].Name(),
		MSE:     s.sqErr[best] / n,
		MAE:     s.absErr[best] / n,
		Samples: s.samples,
	}, true
}

func (s *refSelector) Errors() map[string][2]float64 {
	out := make(map[string][2]float64, len(s.methods))
	n := float64(max(s.scored, 1))
	for i, m := range s.methods {
		out[m.Name()] = [2]float64{s.sqErr[i] / n, s.absErr[i] / n}
	}
	return out
}

// TestSelectorMatchesReference feeds the Selector and the reference the
// same series and requires Forecast, ForecastMAE and Errors to agree bit
// for bit at every step.
func TestSelectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gen := map[string]func() float64{
		"uniform":   func() float64 { return rng.Float64() * 100 },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()*1.5 + 2) },
		"tied":      func() float64 { return float64(rng.Intn(4)) },
	}
	var series [][]float64
	var names []string
	for _, name := range []string{"uniform", "lognormal", "tied"} {
		for i := 0; i < 20; i++ {
			vs := make([]float64, 1+rng.Intn(200))
			for j := range vs {
				vs[j] = gen[name]()
			}
			series = append(series, vs)
			names = append(names, name)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		series = append(series, gridSeries(2000, seed))
		names = append(names, "grid")
	}
	for i, vs := range series {
		got, want := NewSelector(), newRefSelector()
		for step, v := range vs {
			got.Update(v)
			want.Update(v)
			for _, useMAE := range []bool{false, true} {
				g, gok := got.forecast(useMAE)
				w, wok := want.forecast(useMAE)
				if gok != wok || !sameForecast(g, w) {
					t.Fatalf("%s series %d step %d (mae=%v): got %+v,%v want %+v,%v", names[i], i, step, useMAE, g, gok, w, wok)
				}
			}
			ge, we := got.Errors(), want.Errors()
			if len(ge) != len(we) {
				t.Fatalf("%s series %d step %d: %d Errors entries, want %d", names[i], i, step, len(ge), len(we))
			}
			for name, w := range we {
				if g, ok := ge[name]; !ok || !sameBits(g[0], w[0]) || !sameBits(g[1], w[1]) {
					t.Fatalf("%s series %d step %d: Errors[%s] = %v, want %v", names[i], i, step, name, g, w)
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameForecast(a, b Forecast) bool {
	return sameBits(a.Value, b.Value) && a.Method == b.Method && sameBits(a.MSE, b.MSE) &&
		sameBits(a.MAE, b.MAE) && a.Samples == b.Samples
}

package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// soloMethod runs one Method through a one-method Selector; Predict is
// that method's standing prediction.
type soloMethod struct{ *Selector }

func solo(m Method) soloMethod { return soloMethod{NewSelector(m)} }

func (s soloMethod) Predict() (float64, bool) {
	f, ok := s.Forecast()
	return f.Value, ok
}

func feed(m soloMethod, vs ...float64) {
	for _, v := range vs {
		m.Update(v)
	}
}

func TestLastValue(t *testing.T) {
	m := solo(NewLastValue())
	if _, ok := m.Predict(); ok {
		t.Fatal("predict before data must fail")
	}
	feed(m, 1, 2, 3)
	if v, ok := m.Predict(); !ok || v != 3 {
		t.Fatalf("got %v,%v want 3,true", v, ok)
	}
}

func TestRunningMean(t *testing.T) {
	m := solo(NewRunningMean())
	feed(m, 2, 4, 6, 8)
	if v, _ := m.Predict(); v != 5 {
		t.Fatalf("got %v want 5", v)
	}
}

func TestSlidingMeanWindowEviction(t *testing.T) {
	m := solo(NewSlidingMean(3))
	feed(m, 100, 1, 2, 3) // 100 must fall out of the window
	if v, _ := m.Predict(); v != 2 {
		t.Fatalf("got %v want 2", v)
	}
}

func TestSlidingMeanPartialWindow(t *testing.T) {
	m := solo(NewSlidingMean(10))
	feed(m, 4, 6)
	if v, _ := m.Predict(); v != 5 {
		t.Fatalf("got %v want 5", v)
	}
}

func TestSlidingMedianOdd(t *testing.T) {
	m := solo(NewSlidingMedian(5))
	feed(m, 9, 1, 5, 3, 7)
	if v, _ := m.Predict(); v != 5 {
		t.Fatalf("got %v want 5", v)
	}
}

func TestSlidingMedianEvenCount(t *testing.T) {
	m := solo(NewSlidingMedian(5))
	feed(m, 1, 3, 5, 7)
	if v, _ := m.Predict(); v != 4 {
		t.Fatalf("got %v want 4", v)
	}
}

func TestSlidingMedianResistsSpike(t *testing.T) {
	m := solo(NewSlidingMedian(5))
	feed(m, 10, 10, 1e9, 10, 10)
	if v, _ := m.Predict(); v != 10 {
		t.Fatalf("median with spike = %v, want 10", v)
	}
}

func TestTrimmedMeanDiscardsTails(t *testing.T) {
	m := solo(NewTrimmedMean(4, 0.25))
	feed(m, 0, 10, 10, 1000)
	if v, _ := m.Predict(); v != 10 {
		t.Fatalf("got %v want 10", v)
	}
}

func TestTrimmedMeanDegenerateTrim(t *testing.T) {
	// Trim so aggressive that the slice empties: must fall back sanely.
	m := solo(NewTrimmedMean(2, 0.5))
	feed(m, 1, 3)
	if v, ok := m.Predict(); !ok || math.IsNaN(v) {
		t.Fatalf("got %v,%v want finite value", v, ok)
	}
}

func TestExpSmoothConvergesToConstant(t *testing.T) {
	m := solo(NewExpSmooth(0.5))
	for i := 0; i < 50; i++ {
		m.Update(42)
	}
	if v, _ := m.Predict(); math.Abs(v-42) > 1e-9 {
		t.Fatalf("got %v want 42", v)
	}
}

func TestExpSmoothFirstValueSeeds(t *testing.T) {
	m := solo(NewExpSmooth(0.1))
	m.Update(7)
	if v, _ := m.Predict(); v != 7 {
		t.Fatalf("got %v want 7", v)
	}
}

func TestAdaptSmoothTracksRegimeChange(t *testing.T) {
	fixed := solo(NewExpSmooth(0.05))
	adapt := solo(NewAdaptSmooth())
	// Long stable regime at 10, then a jump to 100.
	for i := 0; i < 100; i++ {
		fixed.Update(10)
		adapt.Update(10)
	}
	for i := 0; i < 5; i++ {
		fixed.Update(100)
		adapt.Update(100)
	}
	fv, _ := fixed.Predict()
	av, _ := adapt.Predict()
	if math.Abs(av-100) >= math.Abs(fv-100) {
		t.Fatalf("adaptive smoother (%v) should track the jump faster than alpha=0.05 (%v)", av, fv)
	}
}

func TestMethodNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range DefaultBattery() {
		if seen[m.Name()] {
			t.Fatalf("duplicate method name %q", m.Name())
		}
		seen[m.Name()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("battery too small: %d methods", len(seen))
	}
}

// Property: every battery method's prediction lies within the range of
// observed values (all are averages/selections of history).
func TestQuickPredictionsWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float rounding noise at 1e300.
			vs = append(vs, math.Mod(v, 1e6))
		}
		if len(vs) == 0 {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		const eps = 1e-6
		for _, bm := range DefaultBattery() {
			m := solo(bm)
			feed(m, vs...)
			p, ok := m.Predict()
			if !ok {
				return false
			}
			if p < lo-eps-math.Abs(lo)*1e-9 || p > hi+eps+math.Abs(hi)*1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sliding window methods depend only on the last k values.
func TestQuickSlidingWindowForgetsOldData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		prefix := make([]float64, rng.Intn(20))
		for i := range prefix {
			prefix[i] = rng.Float64() * 100
		}
		tail := make([]float64, k)
		for i := range tail {
			tail[i] = rng.Float64() * 100
		}
		for _, mk := range []func() Method{
			func() Method { return NewSlidingMean(k) },
			func() Method { return NewSlidingMedian(k) },
		} {
			a, b := solo(mk()), solo(mk())
			feed(a, prefix...)
			feed(a, tail...)
			feed(b, tail...)
			pa, _ := a.Predict()
			pb, _ := b.Predict()
			if math.Abs(pa-pb) > 1e-6 {
				t.Fatalf("k=%d: window retained old data: %v vs %v", k, pa, pb)
			}
		}
	}
}

func TestAR1TracksAutocorrelatedSeries(t *testing.T) {
	// Strongly autocorrelated series: v[i] = 0.9*v[i-1] + noise. AR(1)
	// should beat the plain window mean.
	rng := rand.New(rand.NewSource(21))
	ar := solo(NewAR1(30))
	mean := solo(NewSlidingMean(30))
	v := 50.0
	var arErr, meanErr float64
	for i := 0; i < 500; i++ {
		if p, ok := ar.Predict(); ok {
			arErr += math.Abs(p - v)
		}
		if p, ok := mean.Predict(); ok {
			meanErr += math.Abs(p - v)
		}
		ar.Update(v)
		mean.Update(v)
		v = 0.9*v + rng.NormFloat64()*3
	}
	if arErr >= meanErr {
		t.Fatalf("AR(1) MAE %v should beat window-mean MAE %v on an AR series", arErr, meanErr)
	}
}

func TestAR1SmallSamples(t *testing.T) {
	m := solo(NewAR1(10))
	if _, ok := m.Predict(); ok {
		t.Fatal("no data must not predict")
	}
	m.Update(5)
	if p, ok := m.Predict(); !ok || p != 5 {
		t.Fatalf("single sample predict = %v, %v", p, ok)
	}
	m.Update(5)
	m.Update(5)
	m.Update(5)
	if p, ok := m.Predict(); !ok || math.Abs(p-5) > 1e-9 {
		t.Fatalf("constant series predict = %v, %v", p, ok)
	}
}

func TestAR1MinimumWindow(t *testing.T) {
	m := solo(NewAR1(1)) // must normalize to >= 4
	for i := 0; i < 10; i++ {
		m.Update(float64(i))
	}
	if _, ok := m.Predict(); !ok {
		t.Fatal("predict failed")
	}
}

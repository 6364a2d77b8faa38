package forecast

import (
	"math/rand"
	"testing"
	"time"
)

func BenchmarkSelectorUpdate(b *testing.B) {
	s := NewSelector()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(rng.Float64() * 100)
	}
}

func BenchmarkSelectorForecast(b *testing.B) {
	s := NewSelector()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s.Update(rng.Float64() * 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Forecast(); !ok {
			b.Fatal("no forecast")
		}
	}
}

func BenchmarkRegistryRecord(b *testing.B) {
	r := NewRegistry()
	keys := make([]Key, 32)
	for i := range keys {
		keys[i] = Key{Resource: "srv", Event: string(rune('a' + i))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(keys[i%len(keys)], float64(i))
	}
}

func BenchmarkTimeoutPolicy(b *testing.B) {
	r := NewRegistry()
	p := NewTimeoutPolicy(r)
	k := Key{Resource: "s", Event: "m"}
	for i := 0; i < 100; i++ {
		p.Observe(k, 150*time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Timeout(k)
	}
}

// gridSeries is a piecewise-stationary series with contention spikes,
// the NWS's target regime.
func gridSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	level := 100.0
	for i := range out {
		if rng.Float64() < 0.01 {
			level = 50 + rng.Float64()*200 // regime change
		}
		v := level + rng.NormFloat64()*5
		if rng.Float64() < 0.05 {
			v *= 5 // contention spike
		}
		out[i] = v
	}
	return out
}

// BenchmarkBatteryAccuracy is the design-choice ablation DESIGN.md calls
// out: does dynamic best-method selection actually beat a fixed method on
// a Grid-like series (gridSeries)? Metrics report mean absolute error of the
// dynamically selected forecast vs the last-value baseline.
func BenchmarkBatteryAccuracy(b *testing.B) {
	var selErr, lastErr float64
	var count int
	for i := 0; i < b.N; i++ {
		series := gridSeries(2000, int64(i+1))
		sel := NewSelector()
		last := solo(NewLastValue())
		for _, v := range series {
			if f, ok := sel.Forecast(); ok {
				d := f.Value - v
				if d < 0 {
					d = -d
				}
				selErr += d
				count++
			}
			if p, ok := last.Predict(); ok {
				d := p - v
				if d < 0 {
					d = -d
				}
				lastErr += d
			}
			sel.Update(v)
			last.Update(v)
		}
	}
	if count > 0 {
		b.ReportMetric(selErr/float64(count), "selected_mae")
		b.ReportMetric(lastErr/float64(count), "lastvalue_mae")
		b.ReportMetric(lastErr/selErr, "accuracy_gain")
	}
}

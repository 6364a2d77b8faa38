package forecast

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSelectorEmpty(t *testing.T) {
	s := NewSelector()
	if _, ok := s.Forecast(); ok {
		t.Fatal("forecast before data must fail")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("last before data must fail")
	}
}

func TestSelectorConstantSeries(t *testing.T) {
	s := NewSelector()
	for i := 0; i < 30; i++ {
		s.Update(5)
	}
	f, ok := s.Forecast()
	if !ok || math.Abs(f.Value-5) > 1e-9 {
		t.Fatalf("forecast = %+v, %v", f, ok)
	}
	if f.Samples != 30 {
		t.Fatalf("samples = %d", f.Samples)
	}
}

func TestSelectorPicksAccurateMethodOnNoisySeries(t *testing.T) {
	// Series: constant 100 with occasional huge spikes. Median-family
	// methods should beat last_value, and the selected forecast must stay
	// near 100.
	s := NewSelector()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		v := 100.0
		if rng.Float64() < 0.1 {
			v = 5000
		}
		s.Update(v)
	}
	f, ok := s.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if f.Value > 700 {
		t.Fatalf("selected forecast %v (%s) dominated by spikes", f.Value, f.Method)
	}
	errs := s.Errors()
	if errs["last_value"][0] <= errs[f.Method][0] {
		t.Fatalf("winner %s (MSE %v) should beat last_value (MSE %v)",
			f.Method, errs[f.Method][0], errs["last_value"][0])
	}
}

func TestSelectorMAESelectionDiffersFromMSE(t *testing.T) {
	// Both criteria must at least produce valid forecasts; on adversarial
	// series they may disagree, which is why the NWS exposes both.
	s := NewSelector()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		s.Update(rng.NormFloat64()*10 + 50)
	}
	fMSE, ok1 := s.Forecast()
	fMAE, ok2 := s.ForecastMAE()
	if !ok1 || !ok2 {
		t.Fatal("missing forecast")
	}
	if math.Abs(fMSE.Value-50) > 15 || math.Abs(fMAE.Value-50) > 15 {
		t.Fatalf("forecasts far from mean: MSE %v, MAE %v", fMSE.Value, fMAE.Value)
	}
}

func TestSelectorWinnerErrorIsMinimal(t *testing.T) {
	s := NewSelector()
	rng := rand.New(rand.NewSource(3))
	v := 100.0
	for i := 0; i < 400; i++ {
		v = 0.9*v + 0.1*(100+rng.NormFloat64()*20)
		s.Update(v)
	}
	f, _ := s.Forecast()
	for name, e := range s.Errors() {
		if e[0] < f.MSE-1e-12 {
			t.Fatalf("method %s has MSE %v below winner %s's %v", name, e[0], f.Method, f.MSE)
		}
	}
}

func TestSelectorConcurrentAccess(t *testing.T) {
	s := NewSelector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				s.Update(rng.Float64() * 10)
				s.Forecast()
			}
		}(int64(g))
	}
	wg.Wait()
	if s.Samples() != 8*200 {
		t.Fatalf("samples = %d, want 1600", s.Samples())
	}
}

func TestRegistryCreatesAndReusesSelectors(t *testing.T) {
	r := NewRegistry()
	k := Key{Resource: "gossip@a:1", Event: "state_update"}
	r.Record(k, 1)
	r.Record(k, 2)
	if got := r.Selector(k).Samples(); got != 2 {
		t.Fatalf("samples = %d", got)
	}
	if _, ok := r.Forecast(Key{Resource: "other", Event: "x"}); ok {
		t.Fatal("unknown key must have no forecast")
	}
	if f, ok := r.Forecast(k); !ok || f.Samples != 2 {
		t.Fatalf("forecast = %+v, %v", f, ok)
	}
}

func TestRegistryKeysSorted(t *testing.T) {
	r := NewRegistry()
	r.Record(Key{"b", "y"}, 1)
	r.Record(Key{"a", "z"}, 1)
	r.Record(Key{"a", "x"}, 1)
	keys := r.Keys()
	want := []Key{{"a", "x"}, {"a", "z"}, {"b", "y"}}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
}

func TestStartEventRecordsElapsed(t *testing.T) {
	r := NewRegistry()
	// Virtual clock: each call advances 100 ms.
	now := time.Unix(0, 0)
	r.Now = func() time.Time {
		now = now.Add(100 * time.Millisecond)
		return now
	}
	k := Key{Resource: "srv", Event: "op"}
	stop := r.StartEvent(k)
	d := stop()
	if d != 100*time.Millisecond {
		t.Fatalf("elapsed = %v", d)
	}
	f, ok := r.Forecast(k)
	if !ok || math.Abs(f.Value-0.1) > 1e-9 {
		t.Fatalf("forecast = %+v, %v", f, ok)
	}
}

func TestTimeoutPolicyDefaultBeforeData(t *testing.T) {
	p := NewTimeoutPolicy(NewRegistry())
	k := Key{Resource: "s", Event: "m"}
	if got := p.Timeout(k); got != p.Default {
		t.Fatalf("timeout = %v, want default %v", got, p.Default)
	}
}

func TestTimeoutPolicyScalesWithForecast(t *testing.T) {
	r := NewRegistry()
	p := NewTimeoutPolicy(r)
	k := Key{Resource: "s", Event: "m"}
	for i := 0; i < 20; i++ {
		p.Observe(k, 200*time.Millisecond)
	}
	got := p.Timeout(k)
	want := 4*200*time.Millisecond + p.Pad
	if got < want-20*time.Millisecond || got > want+20*time.Millisecond {
		t.Fatalf("timeout = %v, want ~%v", got, want)
	}
}

func TestTimeoutPolicyClamps(t *testing.T) {
	r := NewRegistry()
	p := NewTimeoutPolicy(r)
	k := Key{Resource: "s", Event: "m"}
	for i := 0; i < 5; i++ {
		p.Observe(k, time.Microsecond)
	}
	if got := p.Timeout(k); got != p.Min {
		t.Fatalf("timeout = %v, want Min %v", got, p.Min)
	}
	k2 := Key{Resource: "s", Event: "slow"}
	for i := 0; i < 5; i++ {
		p.Observe(k2, time.Hour)
	}
	if got := p.Timeout(k2); got != p.Max {
		t.Fatalf("timeout = %v, want Max %v", got, p.Max)
	}
}

func TestTimeoutPolicyAdaptsUpwardAfterTimeouts(t *testing.T) {
	r := NewRegistry()
	p := NewTimeoutPolicy(r)
	k := Key{Resource: "s", Event: "m"}
	for i := 0; i < 30; i++ {
		p.Observe(k, 50*time.Millisecond)
	}
	before := p.Timeout(k)
	// Server slows down: observed times (including recorded timeouts) rise.
	for i := 0; i < 30; i++ {
		p.Observe(k, 2*time.Second)
	}
	after := p.Timeout(k)
	if after <= before {
		t.Fatalf("timeout did not adapt upward: %v -> %v", before, after)
	}
}

// TestSelectorFootprint gates the live heap one forecast series costs:
// the scheduler keeps a Selector per client, so this is its per-client
// forecasting state.
func TestSelectorFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	const series, perSeries = 2000, 1700
	rng := rand.New(rand.NewSource(1))
	sels := make([]*Selector, series)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range sels {
		sels[i] = NewSelector()
		for j := 0; j < 60; j++ {
			sels[i].Update(rng.Float64() * 100)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sels)
	got := float64(after.HeapAlloc-before.HeapAlloc) / series
	t.Logf("%.0f B per series", got)
	if got > perSeries {
		t.Fatalf("%.0f B per series, want at most %d", got, perSeries)
	}
}

package forecast

import (
	"math"
	"sync"
)

// Forecast is a prediction produced by a Selector, annotated with the
// technique that produced it and that technique's tracked error.
type Forecast struct {
	// Value is the predicted next measurement.
	Value float64
	// Method is the name of the winning technique.
	Method string
	// MSE is the winner's cumulative mean squared error.
	MSE float64
	// MAE is the winner's cumulative mean absolute error.
	MAE float64
	// Samples is the number of measurements observed.
	Samples int
}

// Selector runs a battery of forecasting methods over one measurement
// stream, tracks each method's accumulated prediction error, and forecasts
// with the method that has been most accurate so far — the core of the NWS
// methodology. The battery shares one History, and each method's standing
// prediction is computed once per Update and cached for Forecast. Selector
// is safe for concurrent use.
type Selector struct {
	mu      sync.Mutex
	methods []Method
	slots   []slot
	hist    History
	scored  int // updates for which errors were recorded
}

// slot is one method's cumulative errors and standing prediction.
type slot struct {
	sqErr, absErr, pred float64
	ok                  bool
}

// NewSelector returns a Selector over the given battery; if battery is
// empty the DefaultBattery is used.
func NewSelector(battery ...Method) *Selector {
	if len(battery) == 0 {
		battery = DefaultBattery()
	}
	size := 1
	for _, m := range battery {
		size = max(size, m.Window())
	}
	return &Selector{
		methods: battery,
		slots:   make([]slot, len(battery)),
		hist:    History{buf: make([]float64, size)},
	}
}

// Update scores every method's standing prediction against measurement v,
// feeds v to the battery, and caches each method's next prediction.
func (s *Selector) Update(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	anyPredicted := false
	for i := range s.slots {
		if sl := &s.slots[i]; sl.ok {
			e := sl.pred - v
			sl.sqErr += e * e
			if e < 0 {
				e = -e
			}
			sl.absErr += e
			anyPredicted = true
		}
	}
	if anyPredicted {
		s.scored++
	}
	for _, m := range s.methods {
		m.Update(&s.hist, v)
	}
	s.hist.push(v)
	for i, m := range s.methods {
		s.slots[i].pred, s.slots[i].ok = m.Predict(&s.hist)
	}
}

// Samples reports how many measurements the Selector has seen.
func (s *Selector) Samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist.Len()
}

// Last returns the most recent measurement (0, false before any Update).
func (s *Selector) Last() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist.Len() == 0 {
		return 0, false
	}
	return s.hist.Back(0), true
}

// Forecast returns the prediction of the method with the lowest mean
// squared error so far. ok is false until at least one measurement has
// been observed.
func (s *Selector) Forecast() (Forecast, bool) {
	return s.forecast(false)
}

// ForecastMAE is Forecast using mean absolute error as the selection
// criterion; the NWS exposes both because MAE-selected predictors resist
// outliers better.
func (s *Selector) ForecastMAE() (Forecast, bool) {
	return s.forecast(true)
}

func (s *Selector) forecast(useMAE bool) (Forecast, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := -1
	bestErr := math.Inf(1)
	for i, sl := range s.slots {
		e := sl.sqErr
		if useMAE {
			e = sl.absErr
		}
		if sl.ok && e < bestErr {
			bestErr = e
			best = i
		}
	}
	if best < 0 {
		return Forecast{}, false
	}
	n := float64(max(s.scored, 1))
	return Forecast{
		Value:   s.slots[best].pred,
		Method:  s.methods[best].Name(),
		MSE:     s.slots[best].sqErr / n,
		MAE:     s.slots[best].absErr / n,
		Samples: s.hist.Len(),
	}, true
}

// Errors returns per-method cumulative (MSE, MAE) pairs keyed by method
// name, for diagnostics and the forecasting benchmarks.
func (s *Selector) Errors() map[string][2]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][2]float64, len(s.methods))
	n := float64(max(s.scored, 1))
	for i, m := range s.methods {
		out[m.Name()] = [2]float64{s.slots[i].sqErr / n, s.slots[i].absErr / n}
	}
	return out
}

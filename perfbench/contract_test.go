package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metrics the benchmark prints must be the ones BENCHMARK.json at
// the repository root declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}

	e2e, _ := endToEnd(&phase{attempted: 1, extra: map[string]metric{}}, 1)
	declared := map[string]string{}
	for _, m := range bench.EndToEnd {
		declared[m.Name] = m.Unit
	}
	compare(t, "end_to_end", declared, e2e)

	declared = map[string]string{}
	for _, m := range bench.PerLayer {
		declared[m.Name] = m.Unit
	}
	table := map[string]metric{}
	for _, row := range s.Layers {
		table[row.Metric] = metric{Unit: row.Unit}
	}
	compare(t, "per_layer", declared, table)

	// Every per-layer value perLayer computes has a row in the table.
	vals, _, _ := perLayer(s, &phase{}, &phase{attempted: 1, layer: map[string]float64{}}, map[uint64]*node{}, indexSpans(nil), nil, &fleet{})
	for k := range vals {
		if _, ok := table[k]; !ok {
			t.Errorf("perLayer computes %s, which the layer table lacks", k)
		}
	}
}

func compare(t *testing.T, kind string, declared map[string]string, got map[string]metric) {
	t.Helper()
	var names []string
	for n := range declared {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := declared[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		unit, ok := declared[n]
		m, printed := got[n]
		switch {
		case !ok:
			t.Errorf("%s: %s is printed but not declared", kind, n)
		case !printed:
			t.Errorf("%s: %s is declared but not printed", kind, n)
		case m.Unit != unit:
			t.Errorf("%s: %s printed in %s, declared in %s", kind, n, m.Unit, unit)
		}
	}
}

package main

import (
	"reflect"
	"testing"
)

func tree(spans []span) *node {
	forest := buildForest(spans)
	return forest[spans[0].ID]
}

// Self time is a span's duration minus what its children cover, charged
// along the critical path: children are clipped to their parent, so the
// layers sum to the root's duration exactly.
func TestSelfTimesOnSyntheticTree(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  map[string]int64
	}{
		{
			name: "report path with an append that outlives its decision",
			spans: []span{
				{ID: 1, Name: "op.report", Start: 0, End: 100},
				{ID: 2, Parent: 1, Name: "gen.late", Start: 0, End: 10},
				{ID: 3, Parent: 1, Name: "bench.wire.go", Start: 10, End: 100},
				{ID: 4, Parent: 3, Name: "wire.serve.sched.report", Start: 30, End: 80},
				{ID: 5, Parent: 4, Name: "sched.decision", Start: 40, End: 70},
				{ID: 6, Parent: 5, Name: "sched.forecast.read", Start: 50, End: 55},
				{ID: 7, Parent: 5, Name: "wire.call.log.append", Start: 60, End: 130},
			},
			want: map[string]int64{"gen": 10, "wire": 50, "sched": 40, layerGap: 0},
		},
		{
			name: "overlapping children: the one finishing last blocks",
			spans: []span{
				{ID: 1, Name: "op.x", Start: 0, End: 100},
				{ID: 2, Parent: 1, Name: "wire.call.a", Start: 10, End: 60},
				{ID: 3, Parent: 1, Name: "sched.b", Start: 40, End: 90},
			},
			want: map[string]int64{"wire": 30, "sched": 50, layerGap: 20},
		},
		{
			name: "uncovered root time is gap",
			spans: []span{
				{ID: 1, Name: "op.checkpoint", Start: 0, End: 100},
				{ID: 2, Parent: 1, Name: "bench.runner.cycle", Start: 20, End: 50},
				{ID: 3, Parent: 2, Name: "sched.report", Start: 30, End: 45},
			},
			want: map[string]int64{"ramsey": 15, "sched": 15, layerGap: 70},
		},
	} {
		got := make(map[string]int64)
		root := tree(c.spans)
		selfTimes(root, got)
		var sum int64
		for _, v := range got {
			sum += v
		}
		for k, v := range got {
			if v == 0 {
				delete(got, k)
			}
		}
		for k, v := range c.want {
			if v == 0 {
				delete(c.want, k)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
		}
		if sum != root.s.dur() {
			t.Errorf("%s: self times sum to %d, root lasts %d", c.name, sum, root.s.dur())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"op.gossip":                   layerGap,
		"gen.late":                    "gen",
		"bench.wire.go":               "wire",
		"wire.call.sched.report":      "wire",
		"wire.attempt":                "wire",
		"wire.serve.sched.report":     "sched",
		"wire.serve.pstate.store_at":  "pstate",
		"wire.serve.log.append":       "logsvc",
		"wire.serve.gossip.get_state": "gossip",
		"wire.serve.clique":           "clique",
		"sched.decision":              "sched",
		"pstate.quorum_write":         "pstate",
		"gossip.sync_round":           "gossip",
		"gossip.timer_wait":           "gossip",
		"bench.runner.cycle":          "ramsey",
		"bench.pstate.store":          "pstate",
		"bench.agent.set":             "gossip",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

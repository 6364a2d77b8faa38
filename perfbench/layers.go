package main

import (
	"fmt"
	"strings"

	"everyware/internal/gossip"
)

// layers are the modules self time is charged to (see layerOf).
var layers = []string{"gen", "wire", "sched", "logsvc", "ramsey", "pstate", "gossip", "clique"}

// perLayer derives the per-layer metrics of a traced phase: span-based
// busy times from the in-memory trace, counts from the daemons' public
// registries, and the runtime's allocation and GC figures. plain is the
// untraced phase of the same run, the baseline for tracing overhead.
func perLayer(s *spec, plain, traced *phase, forest map[uint64]*node, idx spanIndex, trees []*node, f *fleet) (map[string]float64, []string, []string) {
	v := make(map[string]float64)
	var checks, info []string
	ops := float64(traced.completed())
	if ops == 0 {
		return v, []string{"traced phase completed no op"}, nil
	}
	per := func(n int64) float64 { return float64(n) / ops }
	c := traced.counts

	// Self time along each op's critical path, by layer.
	self := make(map[string]int64)
	var total int64
	for _, t := range trees {
		selfTimes(t, self)
		total += t.s.dur()
	}
	for _, l := range layers {
		v[l+".self_us_per_op"] = float64(self[l]) / 1e3 / ops
	}
	if total > 0 {
		v["trace.span_sum_gap"] = float64(self[layerGap]) / float64(total)
	}
	if len(trees) == 0 {
		checks = append(checks, "traced phase yielded no op trees")
	}
	if gap := v["trace.span_sum_gap"]; gap > s.SpanSumTolerance {
		checks = append(checks, fmt.Sprintf("layer self times cover %.1f%% of op latency; the tolerance leaves %.1f%% unexplained",
			100*(1-gap), 100*s.SpanSumTolerance))
	}
	info = append(info, fmt.Sprintf("span sum: %d op trees, layers explain %.2f%% of op latency", len(trees), 100*(1-v["trace.span_sum_gap"])))
	if p0, ok := percentile(plain.ops.sorted(), 0.5); ok && p0 > 0 {
		if p1, ok := percentile(traced.ops.sorted(), 0.5); ok {
			v["trace.overhead_share"] = p1/p0 - 1
		}
	}

	// wire
	var calls, transit []float64
	for _, n := range forest {
		name := n.s.Name
		if name != "bench.wire.go" && !strings.HasPrefix(name, "wire.call.") {
			continue
		}
		calls = append(calls, float64(n.s.dur())/1e3)
		if srv := serveOf(n); srv != nil {
			transit = append(transit, float64(n.s.dur()-srv.s.dur())/1e3)
		}
	}
	v["wire.call_us"] = mean(calls)
	v["wire.transit_us"] = mean(transit)
	v["wire.calls_per_op"] = per(c.prefix("wire.server.handle.") + traced.logAppends)
	v["wire.bytes_per_op"] = per(traced.bytes)
	v["wire.retries_per_kop"] = 1000 * per(c.count["wire.client.retries"])

	// sched
	v["sched.decision_us"] = meanDur(idx.named("sched.decision"))
	var waits []float64
	for _, sp := range idx.named("wire.serve.sched.report") {
		n := forest[sp.ID]
		w := n.s.dur()
		for _, k := range n.kids {
			if k.s.Name == "sched.decision" {
				w -= k.s.dur()
			}
		}
		waits = append(waits, float64(w)/1e3)
	}
	v["sched.serve_wait_us"] = mean(waits)
	v["sched.forecast_read_us"] = meanDur(idx.named("sched.forecast.read"))
	if len(f.scheds) > 0 {
		var live int
		for _, s := range f.scheds {
			_, _, n := s.Stats()
			live += n
		}
		v["sched.clients"] = float64(live) / float64(len(f.scheds))
	}
	v["sched.migrations_per_kop"] = 1000 * per(c.count["sched.migrations"])
	v["logsvc.appends_per_op"] = per(traced.logAppends)

	// ramsey: a cycle's own time, outside its report, is the search.
	var search []float64
	var searchNS int64
	for _, sp := range idx.named("bench.runner.cycle") {
		n := forest[sp.ID]
		own := n.s.dur()
		for _, k := range n.kids {
			own -= k.s.dur()
		}
		search = append(search, float64(own)/1e3)
		searchNS += own
	}
	v["ramsey.search_us"] = mean(search)
	if searchNS > 0 {
		v["ramsey.int_ops_per_s"] = traced.layer["ramsey.int_ops"] / (float64(searchNS) / 1e9)
	}

	// pstate
	var probe, fanout []float64
	for _, sp := range idx.named("pstate.quorum_write") {
		n := forest[sp.ID]
		first := int64(-1)
		for _, k := range n.kids {
			if k.s.Name == "wire.serve.pstate.store_at" && (first < 0 || k.s.Start < first) {
				first = k.s.Start
			}
		}
		if first >= 0 {
			probe = append(probe, float64(first-n.s.Start)/1e3)
			fanout = append(fanout, float64(n.s.End-first)/1e3)
		}
	}
	v["pstate.version_probe_us"] = mean(probe)
	v["pstate.write_fanout_us"] = mean(fanout)
	if n := c.count["pstate.store_at.ok"]; n > 0 {
		v["pstate.store_at_us"] = float64(c.sum["pstate.store_at.ok"]) / 1e3 / float64(n)
	}
	v["pstate.store_at_per_op"] = per(c.prefix("pstate.store_at."))
	v["pstate.fetch_us"] = meanDur(idx.named("pstate.quorum_read"))
	if n := traced.layer["pstate.quorum_ops"]; n > 0 {
		v["pstate.quorum_ok_ratio"] = float64(c.count["pstate.replica.write.quorum_ok"]+c.count["pstate.replica.read.quorum_ok"]) / n
	}
	v["pstate.read_repairs_per_kop"] = 1000 * per(c.count["pstate.replica.read_repair"])

	// gossip and clique
	v["gossip.round_ms"] = meanDur(idx.named("gossip.sync_round")) / 1e3
	if secs := (traced.to - traced.from).Seconds(); secs > 0 {
		v["gossip.rounds_per_s"] = float64(c.count["gossip.sync.rounds"]) / secs
	}
	polls := c.prefix(fmt.Sprintf("wire.server.handle.t%d.", gossip.MsgGetState))
	puts := c.prefix(fmt.Sprintf("wire.server.handle.t%d.", gossip.MsgPutState))
	if updates := traced.layer["gossip.updates"]; updates > 0 {
		v["gossip.polls_per_update"] = float64(polls) / updates
		v["gossip.pushes_per_update"] = float64(puts) / updates
	}
	if puts > 0 {
		v["gossip.useful_push_ratio"] = traced.layer["gossip.installs"] / float64(puts)
	}
	v["gossip.poll_fail_per_kop"] = 1000 * per(c.count["gossip.poll.fail"])
	v["gossip.evictions"] = float64(c.count["gossip.evictions"])
	v["clique.view_changes"] = float64(c.count["clique.view.changes"])

	// go runtime
	v["go.allocs_per_op"] = per(int64(traced.rt.allocs))
	if c := traced.cpu.total(); c > 0 {
		v["go.gc_cpu_share"] = traced.rt.gcCPU / c.Seconds()
	}

	// gen
	if p, ok := percentile(traced.late.sorted(), 0.99); ok {
		v["gen.late_p99_ms"] = p
	}

	// The directive mix only the workload sees.
	for _, k := range []string{"sched.new_work_share", "sched.shed_share"} {
		v[k] = traced.layer[k]
	}
	return v, checks, info
}

// serveOf finds the server-side span a client call reached: a direct
// serve child (pipelined calls), or the serve child of its last attempt.
func serveOf(n *node) *node {
	var last *node
	for _, k := range n.kids {
		if strings.HasPrefix(k.s.Name, "wire.serve.") {
			return k
		}
		if k.s.Name == "wire.attempt" && (last == nil || k.s.Start > last.s.Start) {
			last = k
		}
	}
	if last != nil {
		for _, k := range last.kids {
			if strings.HasPrefix(k.s.Name, "wire.serve.") {
				return k
			}
		}
	}
	return nil
}

// meanDur is the mean span duration in microseconds.
func meanDur(spans []*span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += s.dur()
	}
	return float64(sum) / 1e3 / float64(len(spans))
}

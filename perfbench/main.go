// Command perfbench is the repository's end-to-end benchmark. It starts
// the EveryWare daemons in-process over TCP loopback, drives them the way
// Ramsey clients do, checks their outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 30 --trace 0
//
// Workloads (see workloads.json for their sizes and why each was chosen):
//
//   - report: open loop of scheduler reports over a ladder of rates.
//   - checkpoint: closed loop of Runner.Cycle plus a quorum checkpoint.
//   - gossip: open loop of state updates replicated by the Gossip pool.
//
// With --trace 0 the run sets the daemons up several times (setup_s is
// the median), then measures untraced and reports the end-to-end metrics.
// With --trace 1 it measures a quarter of the time untraced and the rest
// traced, on fresh daemons each, and reports the per-layer metrics; every
// op of the traced phase is sampled and its spans are written out at the
// end. README.md says which metrics are gated and why.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

//go:embed workloads.json
var specJSON []byte

// Problem size of every work unit: counter-examples for R(4) on 17
// vertices, the N/K the EveryWare deployment defaults to.
const (
	problemN = 17
	problemK = 4
)

type spec struct {
	SetupRepeats     int     `json:"setup_repeats"`
	SpanSumTolerance float64 `json:"span_sum_tolerance"`
	Workloads        struct {
		Report     reportSpec     `json:"report"`
		Checkpoint checkpointSpec `json:"checkpoint"`
		Gossip     gossipSpec     `json:"gossip"`
	} `json:"workloads"`
	Layers []layerRow `json:"layers"`
}

// layerRow is one per-layer metric and the end-to-end metric it should
// move, the table later changes cite by name.
type layerRow struct {
	Metric string   `json:"metric"`
	Unit   string   `json:"unit"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &s, nil
}

// workload is one traffic mix over its own fleet of daemons.
type workload interface {
	// loop describes the load: loop type with its rate or client count.
	loop() string
	// start builds the fleet and returns once the first op was answered.
	start(e *env) error
	// warm primes daemon state (client tables, forecasts) before timing.
	warm() error
	// measure drives load for d and records every op. steady asks for the
	// workload's steady load alone, as both phases of a traced run use.
	measure(d time.Duration, steady bool) (*phase, error)
	// verify checks the end state; every failure is a correctness error.
	verify() []string
	// trees returns one span tree per op of a traced phase.
	trees(forest map[uint64]*node, idx spanIndex) []*node
	// fleetOf exposes the running daemons for counts.
	fleetOf() *fleet
	close()
}

func newWorkload(name string, s *spec, seed int64) (workload, error) {
	switch name {
	case "report":
		if n := s.Workloads.Report.Shards; n < 1 || n > 2 {
			return nil, fmt.Errorf("report workload: %d shards; the collector waits on at most two", n)
		}
		return newReport(s.Workloads.Report, seed), nil
	case "checkpoint":
		return newCheckpoint(s.Workloads.Checkpoint, seed), nil
	case "gossip":
		return newGossip(s.Workloads.Gossip, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want report, checkpoint or gossip)", name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "report, checkpoint or gossip")
	seed := flag.Int64("seed", 1, "workload seed; the generator makes every input from it")
	seconds := flag.Int("seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch data and results go under <root>/.bench_build")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, root string) error {
	s, err := loadSpec()
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := newWorkload(name, s, seed); err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	dataDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	md := collectMeta(root, dataDir)
	md.Workload, md.Seed, md.Seconds, md.Traced = name, seed, seconds, traced

	var out *runOut
	if traced {
		out, err = tracedRun(s, name, seed, time.Duration(seconds)*time.Second, dataDir)
	} else {
		out, err = plainRun(s, name, seed, time.Duration(seconds)*time.Second, dataDir)
	}
	if err != nil {
		return err
	}
	md.Loop = out.loop

	res := result{
		Correct:   len(out.checks) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	printReport(md, out)
	if err := saveResult(build, md, out, res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOut is everything one invocation measured.
type runOut struct {
	loop              string
	attempted, failed int64
	metrics           map[string]metric
	// extra are metrics printed and saved beside the contract metrics:
	// workload-specific end-to-end figures and their sample counts.
	extra  map[string]metric
	info   []string
	checks []string
	spans  *recorder
}

func printReport(md meta, out *runOut) {
	mdj, _ := json.Marshal(md)
	fmt.Printf("meta %s\n", mdj)
	for _, l := range out.info {
		fmt.Println(l)
	}
	printMetrics := func(kind string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %-28s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
		}
	}
	printMetrics("metric", out.metrics)
	printMetrics("extra ", out.extra)
	for _, c := range out.checks {
		fmt.Println("CHECK FAILED:", c)
	}
}

// saveResult writes the run's record (metadata, every metric, checks)
// and, for a traced run, its spans under <build>/results.
func saveResult(build string, md meta, out *runOut, res result) error {
	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%t-%s", md.Workload, md.Seed, md.Traced, time.Now().UTC().Format("20060102T150405"))
	rec := struct {
		Meta   meta              `json:"meta"`
		Result result            `json:"result"`
		Extra  map[string]metric `json:"extra"`
		Info   []string          `json:"info"`
		Checks []string          `json:"checks"`
	}{md, res, out.extra, out.info, out.checks}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if out.spans != nil {
		return out.spans.write(filepath.Join(dir, base+".spans.jsonl"))
	}
	return nil
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"everyware/internal/telemetry"
)

// cpuTime is the process's user and system CPU time (getrusage).
type cpuTime struct{ user, sys time.Duration }

func procCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}
	}
	return cpuTime{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

func (c cpuTime) sub(o cpuTime) cpuTime { return cpuTime{c.user - o.user, c.sys - o.sys} }

func (c cpuTime) total() time.Duration { return c.user + c.sys }

// cpuWindow is the CPU a measurement window used and the ops it completed.
type cpuWindow struct {
	cpu cpuTime
	ops int
}

// Runtime metrics read around a measured phase.
const (
	rmAllocs = "/gc/heap/allocs:objects"
	rmGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	// rmHeapLive is the heap the last GC cycle marked live: the memory the
	// program must retain. Heap in use including unswept garbage depends
	// on where the GC cycle stands when sampled and swings by a tenth
	// between identical runs.
	rmHeapLive = "/gc/heap/live:bytes"
)

// runtimeSample reads the cumulative runtime counters.
type runtimeSample struct {
	allocs uint64
	gcCPU  float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: rmAllocs}, {Name: rmGCCPU}}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
}

// heapSampler tracks the peak live heap while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

// sampleHeap starts sampling every millisecond until done is called.
func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: rmHeapLive}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak in bytes.
func (h *heapSampler) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// tally sums every daemon registry's counters, gauges and histogram
// counts and sums by metric name, so a phase's counts are the difference
// of two tallies.
type tally struct {
	count map[string]int64
	sum   map[string]int64 // histogram sums, nanoseconds
}

func takeTally(regs []*telemetry.Registry) tally {
	t := tally{count: make(map[string]int64), sum: make(map[string]int64)}
	for _, r := range regs {
		for _, s := range r.Snapshot("").Samples {
			switch s.Kind {
			case telemetry.KindCounter, telemetry.KindGauge:
				t.count[s.Name] += s.Value
			case telemetry.KindHistogram:
				if s.Hist != nil {
					t.count[s.Name] += s.Hist.Count
					t.sum[s.Name] += s.Hist.SumNanos
				}
			}
		}
	}
	return t
}

// since returns t minus before.
func (t tally) since(before tally) tally {
	d := tally{count: make(map[string]int64), sum: make(map[string]int64)}
	for k, v := range t.count {
		d.count[k] = v - before.count[k]
	}
	for k, v := range t.sum {
		d.sum[k] = v - before.sum[k]
	}
	return d
}

// prefix sums the counts of every metric whose name starts with p.
func (t tally) prefix(p string) int64 {
	var n int64
	for k, v := range t.count {
		if strings.HasPrefix(k, p) {
			n += v
		}
	}
	return n
}

// meta is the record of where and how a result was measured.
type meta struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	PStateFS   string `json:"pstate_fs"`
	Transport  string `json:"transport"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Loop       string `json:"loop"`
}

func collectMeta(root, dataDir string) meta {
	return meta{
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		PStateFS:   fsType(dataDir),
		Transport:  "tcp-loopback",
	}
}

// gitCommit resolves HEAD from the checkout's .git directory, if any. A
// checkout exported without git history reports "none"; the source hash
// still identifies the code.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == name {
				return fields[0]
			}
		}
	}
	return "unresolved " + name
}

// sourceHash digests every Go source and module file of the checkout in
// path order, skipping hidden directories (build output, VCS data).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%X", uint64(st.Type))
}

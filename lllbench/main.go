// Command lllbench is the repository benchmark. It runs one workload for a
// fixed time in a closed loop, checks the output of every operation, and
// prints the end-to-end metrics, or with --trace 1 the per-layer metrics,
// as one JSON object on the last line of standard output:
//
//	bash lllbench/run.sh --workload serve-hot --seed 7 --seconds 20 --trace 0
//
// Workloads (README.md has the reasons and the metric mapping):
//
//	dist-paper   Corollaries 1.2 and 1.4 through lll.SolveDistributed, 1 client
//	serve-cold   POST /v1/jobs, every job a cache miss, 2 clients
//	serve-hot    POST /v1/jobs, every job a cache hit, 1 client
//	serve-batch  POST /v1/jobs/batch, 32 members with in-batch dedup, 1 client
//
// The serving workloads call service.NewHandler in-process (ServeHTTP, no
// sockets) over a service configured like llld's defaults. The inputs of
// every operation are a function of --seed and the operation's index only.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

const (
	// setupReps is how often a run sets its workload up; setup_s is the
	// median. The last set-up target is the one timed.
	setupReps = 5
	// minOps is the least number of operations a timed phase runs, so that
	// p90 has at least ten samples beyond it; the phase runs past
	// --seconds until it is reached.
	minOps = 100
	// traceMinOps is the same floor for each half of a traced run.
	traceMinOps = 24
	// maxPhase stops a timed phase that cannot reach its floor.
	maxPhase = 120 * time.Second
	// maxClientShare fails the run when the load generator's own work
	// (request building, response parsing, checks) exceeds this share of
	// the summed operation time: past it the benchmark measures itself.
	maxClientShare = 0.5
)

// Op-index spaces. Operation i of a phase uses index base+i; the spaces do
// not overlap, so no cold input repeats within a run.
const (
	tracedBase = 1 << 20
	setupBase  = 1 << 30
)

// workload is one traffic shape of the benchmark.
type workload struct {
	clients int
	// counted is how many leading operations the deterministic counts
	// (rounds_mean) average over: enough that the mean varies little
	// from seed to seed. A timed phase runs at least this many.
	counted int
	// replays is how many operations of the traced phase are re-run
	// through the public layer entry points.
	replays int
	setup   func(seed uint64, traced bool) (target, error)
}

// target is a set-up workload, ready to be timed.
type target interface {
	// client returns the operation function of one load-generating
	// goroutine; the function owns that goroutine's reusable buffers.
	client() func(i int, tr *tracer) outcome
	// replay re-runs traced operation i through the layer entry points.
	replay(tr *tracer, i int) error
	close()
}

// serve-hot has one client. The job store keeps the last 256 finished jobs,
// about 10 ms of history at the hit rate: a second client could finish 256
// jobs while the first is descheduled between its POST and its GETs, and
// the first would find its job evicted (404) at a rate set by the host's
// scheduler, not by the code, so runs of the same code would disagree on
// the failure count.
var workloads = map[string]workload{
	"dist-paper":  {clients: 1, counted: minOps, setup: newPaper},
	"serve-cold":  {clients: 2, counted: 1000, replays: traceMinOps, setup: serving(kindCold)},
	"serve-hot":   {clients: 1, counted: 10000, setup: serving(kindHot)},
	"serve-batch": {clients: 1, counted: 200, replays: 3, setup: serving(kindBatch)},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: dist-paper | serve-cold | serve-hot | serve-batch")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lllbench: bad arguments: --workload %q --seconds %d --trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rep, err := bench(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lllbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lllbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func bench(name string, w workload, seed uint64, dur time.Duration, traced bool) (*report, error) {
	var tgt target
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if tgt != nil {
			tgt.close()
		}
		t0 := time.Now()
		var err error
		if tgt, err = w.setup(seed, traced); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer tgt.close()
	runtime.GC()

	rep := &report{Correct: true}
	var phases []phase
	var counts map[string]float64
	if !traced {
		p := runPhase(tgt, w.clients, 0, dur, max(minOps, w.counted), w.counted, nil)
		phases = []phase{p}
		rep.Metrics = endToEnd(p, setups)
		if p.countedOK(w.counted) {
			counts = map[string]float64{"rounds_mean": rep.Metrics["rounds_mean"].Value}
		}
		fmt.Printf("%s seed=%d: %d ops in %.2fs, %d latency samples, setup runs %.4f s\n",
			name, seed, p.n, p.wall.Seconds(), len(p.lats), setups)
	} else {
		a := runPhase(tgt, w.clients, 0, dur/2, traceMinOps, 0, nil)
		tr := newTracer()
		b := runPhase(tgt, w.clients, tracedBase, dur/2, traceMinOps, traceMinOps, tr)
		phases = []phase{a, b}
		for i := 0; i < w.replays; i++ {
			if err := tgt.replay(tr, tracedBase+i); err != nil {
				fmt.Printf("CHECK FAILED: replay of op %d: %v\n", tracedBase+i, err)
				rep.Correct = false
			}
		}
		var det map[string]float64
		rep.Metrics, det = tr.layerMetrics(a, b)
		if b.countedOK(traceMinOps) {
			counts = det
		}
		fmt.Printf("%s seed=%d traced: untraced half %d ops in %.2fs, traced half %d ops in %.2fs, %d replays\n",
			name, seed, a.n, a.wall.Seconds(), b.n, b.wall.Seconds(), w.replays)
		tr.printSelfTimes(name)
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s\n", path)
	}

	var opTime, clientTime time.Duration
	for _, p := range phases {
		rep.Attempted += p.n
		rep.Failed += p.failed()
		opTime += p.opTime
		clientTime += p.clientTime
		for c := causeOK + 1; c < numCauses; c++ {
			if p.fails[c] > 0 {
				fmt.Printf("failed ops: %d %s\n", p.fails[c], c)
			}
		}
		if p.wrong() > 0 {
			rep.Correct = false
		}
		if p.n < p.floor {
			fmt.Printf("CHECK FAILED: %d ops in %v, fewer than %d\n", p.n, maxPhase, p.floor)
			rep.Correct = false
		}
	}
	if share := float64(clientTime) / float64(opTime); share > maxClientShare {
		fmt.Printf("CHECK FAILED: the load generator took %.1f%% of operation time (limit %.0f%%)\n", 100*share, 100*maxClientShare)
		rep.Correct = false
	}
	if err := checkCounts(name, seed, counts); err != nil {
		fmt.Printf("CHECK FAILED: %v\n", err)
		rep.Correct = false
	}
	return rep, nil
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p phase, setups []float64) map[string]metric {
	n := float64(p.n)
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {p.opsPerSec(), "1/s"},
		"latency_p50_ms":  {quantile(p.lats, 0.5), "ms"},
		"latency_p90_ms":  {quantile(p.lats, 0.9), "ms"},
		"ok_frac":         {float64(p.fails[causeOK]) / n, "ratio"},
		"cpu_ms_per_op":   {ms(p.cpu) / n, "ms"},
		"peak_rss_mb":     {p.peakRSSMB(), "MB"},
		"alloc_mb_per_op": {float64(p.alloc) / (1 << 20) / n, "MB"},
		"rounds_mean":     {p.roundsMean(), "count"},
	}
}

// checkCounts is the determinism self-check: counts that depend only on the
// seed (round counts, hit and solve ratios) must read the same in every run
// of the same binary with that seed. The first run records them under
// .bench_build/counts/, keyed by a hash of the executable; later runs
// compare.
func checkCounts(name string, seed uint64, counts map[string]float64) error {
	if counts == nil {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(".bench_build", "counts", hex.EncodeToString(sum[:8]), fmt.Sprintf("%s-seed%d.json", name, seed))
	stored := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &stored); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var diffs []string
	for k, v := range counts {
		if old, ok := stored[k]; ok && old != v {
			diffs = append(diffs, fmt.Sprintf("%s %v, earlier run %v", k, v, old))
		}
		stored[k] = v
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("counts differ from an earlier run with seed %d: %v", seed, diffs)
	}
	data, err := json.Marshal(stored)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, k)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

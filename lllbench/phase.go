package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cause classifies the outcome of one operation.
type cause uint8

const (
	causeOK cause = iota
	// Operations the program failed or refused. They count against
	// ok_frac and in "failed", and are never retried.
	causeRejected429 // POST answered 429: queue full
	causeRejected503 // POST answered 503: draining or shed
	causeEvicted404  // GET answered 404: the job left the store, which keeps a fixed number of finished jobs
	causeJobFailed   // the job ended failed or cancelled
	causeSolveError  // a library call returned an error
	// Wrong outputs: any of these makes the run incorrect.
	causeBadResponse  // a status or body the API does not document for the request
	causeUnsatisfied  // the assignment is incomplete or violates an event
	causeCacheState   // a cold job hit the cache, or a hot job missed it
	causeHashMismatch // a hit's assignment hash differs from the solve that filled the entry
	causeBatchShape   // a batch result without 32 members and exactly 24 dedup hits
	numCauses
)

var causeNames = [numCauses]string{
	"ok", "rejects_429", "rejects_503", "evicted_404", "job_failed", "solve_error",
	"bad_response", "unsatisfied", "cache_state", "hash_mismatch", "batch_shape",
}

func (c cause) String() string { return causeNames[c] }

// wrong reports whether the cause is a wrong output rather than a failure.
func (c cause) wrong() bool { return c >= causeBadResponse }

// outcome is the measured result of one operation.
type outcome struct {
	lat   time.Duration // wall time of the whole operation
	calls time.Duration // time inside the calls into the program
	// rounds is the operation's LOCAL or parallel round count.
	rounds int
	// hits of members are job results served from the result cache.
	hits, members int
	cause         cause
}

// phase is one timed, closed-loop stretch of operations. It keeps every
// latency but only sums of the rest, so that a long serve-hot run does not
// grow the benchmark's own memory past the service's.
type phase struct {
	n     int
	floor int       // operations the phase had to run
	lats  []float64 // ms, successful operations only
	fails [numCauses]int
	// opTime sums the operations' latencies, clientTime the load
	// generator's time outside the calls it measures.
	opTime, clientTime time.Duration
	// counted holds the outcomes of the first operations, whose inputs
	// depend only on the seed; the deterministic counts come from them.
	counted []outcome
	// rssPeaks are the peak RSS (MB) of consecutive rssWindow windows.
	rssPeaks []float64
	wall     time.Duration
	cpu      time.Duration // process user+system time
	alloc    uint64        // heap bytes allocated
}

// runPhase runs operations base, base+1, ... on clients goroutines, each
// sending its next operation only when the previous one has returned, until
// dur has passed and at least floor operations have run. It keeps the
// outcomes of the first counted operations.
func runPhase(t target, clients, base int, dur time.Duration, floor, counted int, tr *tracer) phase {
	var next atomic.Int64
	parts := make([]phase, clients)
	prefix := make([]outcome, counted)
	var wg sync.WaitGroup
	stop, rss := make(chan struct{}), make(chan []float64, 1)
	go func() { rss <- rssWindows(stop) }()
	cpu0, alloc0 := cpuTime(), heapAllocs()
	start := time.Now()
	for c := range parts {
		op := t.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			for {
				el := time.Since(start)
				if el >= maxPhase || el >= dur && next.Load() >= int64(floor) {
					return
				}
				i := int(next.Add(1) - 1)
				o := op(base+i, tr)
				if i < counted {
					prefix[i] = o
				}
				p.fails[o.cause]++
				if o.cause == causeOK {
					p.lats = append(p.lats, ms(o.lat))
				}
				p.opTime += o.lat
				p.clientTime += o.lat - o.calls
			}
		}()
	}
	wg.Wait()
	p := phase{
		n:     int(next.Load()),
		floor: floor,
		wall:  time.Since(start),
		cpu:   cpuTime() - cpu0,
		alloc: heapAllocs() - alloc0,
	}
	close(stop)
	p.rssPeaks = <-rss
	p.counted = prefix[:min(counted, p.n)]
	for _, q := range parts {
		p.lats = append(p.lats, q.lats...)
		for c, k := range q.fails {
			p.fails[c] += k
		}
		p.opTime += q.opTime
		p.clientTime += q.clientTime
	}
	return p
}

func (p phase) opsPerSec() float64 { return float64(p.n) / p.wall.Seconds() }

func (p phase) failed() int { return p.n - p.fails[causeOK] }

func (p phase) wrong() int {
	n := 0
	for c, k := range p.fails {
		if cause(c).wrong() {
			n += k
		}
	}
	return n
}

// countedOK reports whether the run reached and passed every counted
// operation, so that the counts over them depend on the seed alone.
func (p phase) countedOK(counted int) bool {
	if len(p.counted) < counted {
		return false
	}
	for _, o := range p.counted {
		if o.cause != causeOK {
			return false
		}
	}
	return true
}

// roundsMean is the mean round count of the successful counted operations.
func (p phase) roundsMean() float64 {
	sum, k := 0, 0
	for _, o := range p.counted {
		if o.cause == causeOK {
			sum += o.rounds
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return float64(sum) / float64(k)
}

// cacheCounts sums, over the counted operations, the job results and those
// of them the service served from its result cache.
func (p phase) cacheCounts() (hits, members int) {
	for _, o := range p.counted {
		hits += o.hits
		members += o.members
	}
	return hits, members
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the median of the phase's window peaks of the resident set
// size, or the process's peak where windows could not be measured. The
// process peak alone moves by a fifth from run to run on dist-paper, with
// where the garbage collector happens to run relative to a solve's
// allocation burst; the median window peak does not.
func (p phase) peakRSSMB() float64 {
	if len(p.rssPeaks) > 0 {
		return median(p.rssPeaks)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssWindow is the window over which one peak RSS sample is taken.
const rssWindow = 2 * time.Second

// rssWindows records the process's peak RSS over consecutive windows until
// stop is closed: at the end of each window it reads VmHWM and resets it by
// writing "5" to /proc/self/clear_refs (Linux 4.0 and later). It returns
// nil where that is not possible.
func rssWindows(stop <-chan struct{}) []float64 {
	if resetPeakRSS() != nil {
		return nil
	}
	t := time.NewTicker(rssWindow)
	defer t.Stop()
	var peaks []float64
	for {
		select {
		case <-t.C:
		case <-stop:
			return peaks
		}
		mb, err := vmHWM()
		if err != nil || resetPeakRSS() != nil {
			return nil
		}
		peaks = append(peaks, mb)
	}
}

func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// vmHWM reads the peak RSS since the last reset, in MB.
func vmHWM() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := bytes.Cut(status, []byte("VmHWM:"))
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(line), []byte("kB")))), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM: %w", err)
	}
	return kb / 1024, nil
}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

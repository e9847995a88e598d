package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the id of the span that made the call (0 for an operation's
// root span).
type span struct {
	Op     int                `json:"op"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps the spans of a traced run in memory. A nil *tracer records
// nothing, which is how the untraced phases run.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so that children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span; id 0 takes a fresh id.
func (t *tracer) record(op int, id, parent int64, name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// allocs returns the heap bytes allocated so far (0 when untraced).
func (t *tracer) allocs() uint64 {
	if t == nil {
		return 0
	}
	return heapAllocs()
}

// allocAttr returns the heap MB allocated since a0 as a span attribute.
func (t *tracer) allocAttr(a0 uint64) map[string]float64 {
	if t == nil {
		return nil
	}
	return map[string]float64{"alloc_mb": float64(heapAllocs()-a0) / (1 << 20)}
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, in ns, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	byID := make(map[int64]int, len(t.spans))
	for i, s := range t.spans {
		byID[s.ID] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// printSelfTimes prints, per span name, the count, the total time and the
// self time of the run's spans.
func (t *tracer) printSelfTimes(workload string) {
	type row struct {
		name        string
		n           int
		total, self int64
	}
	self := t.selfTimes()
	rows := map[string]*row{}
	var all int64
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[i]
		all += self[i]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].self > list[b].self })
	fmt.Printf("per-layer self time, %s (traced half and replays):\n", workload)
	fmt.Printf("  %-18s %8s %12s %12s %14s %7s\n", "span", "count", "total_ms", "self_ms", "self_ms/span", "self%")
	for _, r := range list {
		fmt.Printf("  %-18s %8d %12.2f %12.2f %14.4f %6.1f%%\n", r.name, r.n,
			float64(r.total)/1e6, float64(r.self)/1e6, float64(r.self)/1e6/float64(r.n), 100*float64(r.self)/float64(all))
	}
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// layerMetrics computes the per-layer metrics from the spans, the untraced
// phase a and the traced phase b. Times are medians over all spans of a
// name. Counts are means over the spans of the first traceMinOps traced
// operations, whose inputs depend only on the seed; they are also returned
// as det, the values the determinism self-check compares across runs.
func (t *tracer) layerMetrics(a, b phase) (m map[string]metric, det map[string]float64) {
	durs := map[string][]float64{}
	attrs := map[string][]float64{} // "span/attr" → values
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		if s.Op < tracedBase+traceMinOps {
			for k, v := range s.Attrs {
				attrs[s.Name+"/"+k] = append(attrs[s.Name+"/"+k], v)
			}
		}
	}
	med := func(name string) float64 { return median(durs[name]) }
	mean := func(key string) float64 {
		xs := attrs[key]
		if len(xs) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	hit, solved := 0.0, 0.0
	if hits, members := b.cacheCounts(); members > 0 {
		hit = float64(hits) / float64(members)
		solved = float64(members-hits) / float64(members)
	}
	det = map[string]float64{
		"mt.rounds":                mean("mt.solve/rounds"),
		"mt.resamplings":           mean("mt.solve/resamplings"),
		"core.coloring_rounds":     mean("core.dist2/coloring_rounds") + mean("core.dist3/coloring_rounds"),
		"core.fixing_rounds":       mean("core.dist2/fixing_rounds") + mean("core.dist3/fixing_rounds"),
		"local.messages_per_round": mean("local.round/messages"),
		"local.steps_per_round":    mean("local.round/steps"),
		"service.cache_hit_ratio":  hit,
		"batch.solved_ratio":       solved,
	}
	m = map[string]metric{
		"service.post_ms":     {med("service.post"), "ms"},
		"service.events_ms":   {med("service.events"), "ms"},
		"service.get_ms":      {med("service.get"), "ms"},
		"service.dispatch_ms": {med("service.dispatch"), "ms"},
		"service.run_ms":      {med("service.run"), "ms"},
		"build.ms":            {med("build"), "ms"},
		"build.alloc_mb":      {mean("build/alloc_mb"), "MB"},
		"batch.hash_ms":       {med("batch.hash"), "ms"},
		"kernel.compile_ms":   {med("kernel.compile"), "ms"},
		"mt.solve_ms":         {med("mt.solve"), "ms"},
		"core.seq_ms":         {med("core.seq"), "ms"},
		"core.dist2_ms":       {med("core.dist2"), "ms"},
		"core.dist3_ms":       {med("core.dist3"), "ms"},
		"core.dist2_alloc_mb": {mean("core.dist2/alloc_mb"), "MB"},
		"core.dist3_alloc_mb": {mean("core.dist3/alloc_mb"), "MB"},
		"local.round_ms":      {med("local.round"), "ms"},
		"model.verify_ms":     {med("model.verify"), "ms"},
		"client.ms_per_op":    {ms(a.clientTime+b.clientTime) / float64(a.n+b.n), "ms"},
		"trace.overhead_frac": {1 - b.opsPerSec()/a.opsPerSec(), "ratio"},
		"service.rejects_429": {float64(a.fails[causeRejected429] + b.fails[causeRejected429]), "count"},
		"service.rejects_503": {float64(a.fails[causeRejected503] + b.fails[causeRejected503]), "count"},
		"service.evicted_404": {float64(a.fails[causeEvicted404] + b.fails[causeEvicted404]), "count"},
	}
	for k, v := range det {
		unit := "count"
		if k == "service.cache_hit_ratio" || k == "batch.solved_ratio" {
			unit = "ratio"
		}
		m[k] = metric{v, unit}
	}
	return m, det
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/mt"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/spec"
	"repro/internal/tenant"
)

// Families accepted by JobSpec.Family. "inline" takes the instance from
// JobSpec.Instance (the internal/spec JSON format) instead of a generator.
const (
	FamilySinkless  = "sinkless"
	FamilyHyper     = "hyper"
	FamilyOrient3   = "orient3"
	FamilyWeakSplit = "weaksplit"
	FamilyInline    = "inline"
)

// Algorithms accepted by JobSpec.Algorithm.
const (
	// AlgSeq is the paper's sequential deterministic fixer
	// (Theorems 1.1 / 1.3).
	AlgSeq = "seq"
	// AlgDist is the distributed deterministic fixer (Corollaries 1.2 /
	// 1.4), run on the LOCAL simulator; it emits one "round" event per
	// LOCAL round.
	AlgDist = "dist"
	// AlgMTSeq / AlgMTPar are the sequential and parallel Moser-Tardos
	// resamplers; the parallel variant emits one "round" event per
	// resampling round.
	AlgMTSeq = "mtseq"
	AlgMTPar = "mtpar"
	// AlgMTDist is the LOCAL-model Moser-Tardos resampler; it emits one
	// "round" event per LOCAL round.
	AlgMTDist = "mtdist"
	// AlgOneShot draws a single random sample and counts violated events —
	// a cheap job useful for load testing.
	AlgOneShot = "oneshot"
)

// maxN bounds the instance size a single job may request, protecting the
// daemon's memory against oversized submissions.
const maxN = 2_000_000

// JobSpec is the wire format of POST /v1/jobs: which instance to build and
// which algorithm to run on it. Zero fields take the defaults documented
// per field.
type JobSpec struct {
	// Family selects the instance source: sinkless | hyper | orient3 |
	// weaksplit | inline (default sinkless).
	Family string `json:"family,omitempty"`
	// N is the node count of the generated instance (default 64).
	N int `json:"n,omitempty"`
	// Degree is the graph degree (sinkless; 2 = cycle, default) or the
	// hypergraph degree (hyper, orient3; default 3).
	Degree int `json:"degree,omitempty"`
	// Margin is the sinkless criterion margin p·2^d (default 0.9;
	// 1 = exact threshold).
	Margin float64 `json:"margin,omitempty"`
	// Slack is the hyper-sinkless relaxation slack (default 0.4).
	Slack float64 `json:"slack,omitempty"`
	// Colors is the weak-splitting palette size (default 16).
	Colors int `json:"colors,omitempty"`
	// Seed feeds the generators, LOCAL identifiers and resamplers
	// (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Instance carries an inline instance in the internal/spec JSON format
	// (family "inline" only).
	Instance json.RawMessage `json:"instance,omitempty"`

	// Tenant is the tenant this job is accounted to for weighted-fair
	// scheduling, rate limits and quotas (see internal/tenant). Empty maps
	// to the "default" tenant; the HTTP layer also fills it from the
	// X-Tenant request header. 1–32 characters from [a-zA-Z0-9_-]. With
	// tenancy disabled the label is validated but has no effect.
	Tenant string `json:"tenant,omitempty"`

	// Algorithm: seq | dist | mtseq | mtpar | mtdist | oneshot
	// (default dist).
	Algorithm string `json:"algorithm,omitempty"`
	// Workers is the engine worker count for LOCAL/parallel algorithms;
	// 0 uses the service's per-job cap on the shared pool. Results are
	// bit-identical for every worker count.
	Workers int `json:"workers,omitempty"`
	// MaxRounds caps LOCAL rounds (dist, mtdist) or parallel resampling
	// rounds (mtpar); 0 means the library default.
	MaxRounds int `json:"max_rounds,omitempty"`
	// MaxResamplings caps mtseq resamplings; 0 means the library default.
	MaxResamplings int `json:"max_resamplings,omitempty"`
	// MaxIters caps mtdist resampling iterations; 0 means the library
	// default (200).
	MaxIters int `json:"max_iters,omitempty"`
	// TimeoutMS is a per-attempt wall-clock deadline enforced through the
	// run context; 0 means no deadline. An attempt that exceeds it fails
	// with context.DeadlineExceeded and a Partial result — and is retried
	// when the job has retry budget, resuming from the last checkpoint.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MaxRetries is the number of times a failed attempt is re-admitted
	// (with exponential backoff) before the job goes terminal, capped at 16;
	// 0 uses the service default. Cancellation is never retried.
	MaxRetries int `json:"max_retries,omitempty"`
	// CheckpointEvery snapshots the run state every that many resamplings
	// (mtseq), rounds (mtpar) or fixes (seq) into the job record, so a
	// retried attempt resumes instead of restarting; 0 disables
	// checkpointing. Checkpoint capture never changes the result.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// FaultPanicRate / FaultDropRate / FaultCrashRate inject faults into
	// this job's run (see fault.Plan); they merge with the daemon-wide plan
	// by taking the maximum rate. FaultSeed keys the injection decisions;
	// 0 falls back to the daemon seed, then to Seed.
	FaultPanicRate float64 `json:"fault_panic_rate,omitempty"`
	FaultDropRate  float64 `json:"fault_drop_rate,omitempty"`
	FaultCrashRate float64 `json:"fault_crash_rate,omitempty"`
	FaultSeed      uint64  `json:"fault_seed,omitempty"`

	// TraceID, when set, overrides the trace minted at admission, so a job
	// migrated from another node keeps its original request trace end to
	// end: the JSONL trace logs of both nodes and every NDJSON event carry
	// one continuous ID. Must be empty or 1–64 URL-safe characters.
	TraceID string `json:"trace_id,omitempty"`
	// Resume seeds the job record with a checkpoint captured elsewhere
	// (another process, another node): the first attempt resumes from it
	// exactly as a local retry would, and — per the checkpoint contract —
	// finishes bit-identically to the uninterrupted run. The checkpoint's
	// algorithm tag must match the runtime or the run fails on restore.
	Resume *fault.Checkpoint `json:"resume,omitempty"`
	// ExportCheckpoints mirrors every saved checkpoint into the job's
	// NDJSON event stream as "checkpoint" events (carrying the full
	// serialized snapshot), so a router following the stream can capture
	// the latest one and migrate the job to a surviving node. Requires
	// CheckpointEvery > 0 to have any effect.
	ExportCheckpoints bool `json:"export_checkpoints,omitempty"`
	// PlacementKey overrides the spec-derived consistent-hash placement key
	// (see PlacementKeyFor); 0 means derive. Routers use it to pin related
	// jobs to one node.
	PlacementKey uint64 `json:"placement_key,omitempty"`

	// Cache opts this job into the service's canonical result cache: a
	// completed Summary is stored under the instance's canonical hash
	// (combined with algorithm, seed and budgets) and an identical later
	// job is served the bit-identical cached result instead of re-solving.
	// Concurrent identical cache-enabled jobs are collapsed single-flight.
	// Jobs with fault injection are never cached.
	Cache bool `json:"cache,omitempty"`
	// BatchGroup is an opaque client label carried on the job (and echoed
	// in views and trace events) to correlate related batch submissions;
	// it has no behavioral effect.
	BatchGroup string `json:"batch_group,omitempty"`
	// Batch turns the job into a multi-instance batch: every entry is a
	// full JobSpec (nested batches are rejected) and the job runs them all,
	// one at a time, each exactly as a solo job with its spec would run;
	// identical cacheable instances solve once. The top-level
	// instance/algorithm fields are ignored; TimeoutMS, retry and fault
	// fields still apply to the batch job as a whole, Workers is the
	// default of every instance that sets none, and Cache applies per
	// instance. Results arrive in Summary.Instances, and the event stream
	// is multiplexed by the 1-based Event.Instance id.
	Batch []JobSpec `json:"batch,omitempty"`
}

// maxBatch bounds the instances of one batch job; combined with maxN per
// instance this caps a batch job's memory.
const maxBatch = 1024

// faultPlan assembles the spec's own injection plan.
func (s JobSpec) faultPlan() fault.Plan {
	return fault.Plan{
		Seed:      s.FaultSeed,
		PanicRate: s.FaultPanicRate,
		DropRate:  s.FaultDropRate,
		CrashRate: s.FaultCrashRate,
	}
}

// withDefaults validates the spec and fills defaulted fields, returning the
// normalized copy. It performs only cheap static checks — generator errors
// (e.g. no simple regular graph for the parameters) surface when the job
// runs and fail it.
func (s JobSpec) withDefaults() (JobSpec, error) {
	if len(s.Batch) > maxBatch {
		return s, fmt.Errorf("batch of %d instances exceeds the cap of %d", len(s.Batch), maxBatch)
	}
	if len(s.Batch) > 0 {
		total := 0
		subs := make([]JobSpec, len(s.Batch))
		for i, sub := range s.Batch {
			if len(sub.Batch) > 0 {
				return s, fmt.Errorf("batch instance %d: nested batches are not allowed", i)
			}
			sub.Cache = sub.Cache || s.Cache
			norm, err := sub.withDefaults()
			if err != nil {
				return s, fmt.Errorf("batch instance %d: %w", i, err)
			}
			total += norm.N
			subs[i] = norm
		}
		if total > maxN {
			return s, fmt.Errorf("batch requests %d total nodes, cap is %d", total, maxN)
		}
		s.Batch = subs
	}
	if s.Family == "" {
		s.Family = FamilySinkless
	}
	if s.Algorithm == "" {
		s.Algorithm = AlgDist
	}
	if s.N == 0 {
		s.N = 64
	}
	if s.Margin == 0 {
		s.Margin = 0.9
	}
	if s.Slack == 0 {
		s.Slack = 0.4
	}
	if s.Colors == 0 {
		s.Colors = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Family {
	case FamilySinkless:
		if s.Degree == 0 {
			s.Degree = 2
		}
	case FamilyHyper, FamilyOrient3:
		if s.Degree == 0 {
			s.Degree = 3
		}
		if (s.N*s.Degree)%3 != 0 {
			return s, fmt.Errorf("family %q: n*degree = %d*%d must be divisible by 3", s.Family, s.N, s.Degree)
		}
	case FamilyWeakSplit:
	case FamilyInline:
		if len(bytes.TrimSpace(s.Instance)) == 0 {
			return s, fmt.Errorf(`family "inline" requires the "instance" field`)
		}
	default:
		return s, fmt.Errorf("unknown family %q", s.Family)
	}
	switch s.Algorithm {
	case AlgSeq, AlgDist, AlgMTSeq, AlgMTPar, AlgMTDist, AlgOneShot:
	default:
		return s, fmt.Errorf("unknown algorithm %q", s.Algorithm)
	}
	if s.N < 0 || s.N > maxN {
		return s, fmt.Errorf("n = %d out of range [1, %d]", s.N, maxN)
	}
	if s.Degree < 0 {
		return s, fmt.Errorf("degree = %d must be non-negative", s.Degree)
	}
	if s.Family == FamilySinkless && s.Degree != 2 && s.Degree >= s.N {
		return s, fmt.Errorf("sinkless: degree = %d needs degree < n = %d", s.Degree, s.N)
	}
	if s.Margin < 0 || s.Slack < 0 || s.Colors < 0 {
		return s, fmt.Errorf("margin, slack and colors must be non-negative")
	}
	if s.Workers < 0 || s.MaxRounds < 0 || s.MaxResamplings < 0 || s.MaxIters < 0 || s.TimeoutMS < 0 {
		return s, fmt.Errorf("workers and the max_*/timeout_ms caps must be non-negative")
	}
	if s.MaxRetries < 0 || s.MaxRetries > 16 {
		return s, fmt.Errorf("max_retries = %d out of range [0, 16]", s.MaxRetries)
	}
	if s.CheckpointEvery < 0 {
		return s, fmt.Errorf("checkpoint_every = %d must be non-negative", s.CheckpointEvery)
	}
	if s.Tenant != "" {
		if err := tenant.ValidName(s.Tenant); err != nil {
			return s, err
		}
	}
	if len(s.TraceID) > 64 {
		return s, fmt.Errorf("trace_id longer than 64 characters")
	}
	for _, c := range s.TraceID {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_') {
			return s, fmt.Errorf("trace_id contains non-URL-safe character %q", c)
		}
	}
	if s.Resume != nil {
		if want, ok := checkpointTag(s.Algorithm); !ok {
			return s, fmt.Errorf("algorithm %q does not support checkpoint resume", s.Algorithm)
		} else if s.Resume.Algorithm != "" && s.Resume.Algorithm != want {
			return s, fmt.Errorf("resume checkpoint was taken by %q, algorithm %q resumes from %q",
				s.Resume.Algorithm, s.Algorithm, want)
		}
	}
	if err := s.faultPlan().Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// checkpointTag maps a spec algorithm to the tag its runtime stamps on
// checkpoints, for Resume validation; ok is false for algorithms that
// cannot resume (the LOCAL-model runtimes and oneshot).
func checkpointTag(alg string) (string, bool) {
	switch alg {
	case AlgSeq:
		return core.CheckpointFix, true
	case AlgMTSeq:
		return mt.CheckpointSeq, true
	case AlgMTPar:
		return mt.CheckpointPar, true
	}
	return "", false
}

// PlacementKeyFor returns the consistent-hash placement key of a spec: the
// same spec-field fold the result cache uses, but WITHOUT the canonical
// instance hash — a router must place jobs in O(spec), never build the
// instance. Identical specs therefore always share a key (and a home
// node), while WL-isomorphic-but-differently-encoded submissions may land
// elsewhere and reach the warm entry through the peer cache-fill protocol
// instead. A non-zero JobSpec.PlacementKey wins; batch jobs fold their
// instances' keys so a resubmitted batch is placed with its cache entries.
func PlacementKeyFor(js JobSpec) (uint64, error) {
	js, err := js.withDefaults()
	if err != nil {
		return 0, err
	}
	if js.PlacementKey != 0 {
		return js.PlacementKey, nil
	}
	if len(js.Batch) > 0 {
		k := prng.Mix64(uint64(len(js.Batch)) ^ 0xba7c4)
		for _, sub := range js.Batch {
			k = prng.Mix64(k ^ cacheKey(sub, 0))
		}
		return k, nil
	}
	return cacheKey(js, 0), nil
}

// assignmentHash folds a complete final assignment into one uint64 — the
// cheap cross-process observable for "bit-identical result": a migrated
// job resumed on another node must report the same hash as the
// uninterrupted solo run. 0 for nil or partial assignments.
func assignmentHash(a *model.Assignment) uint64 {
	if a == nil || !a.Complete() {
		return 0
	}
	values, _ := a.Values()
	h := prng.Mix64(uint64(len(values)) ^ 0xa551)
	for _, v := range values {
		h = prng.Mix64(h ^ uint64(v))
	}
	return h
}

// buildInstance materializes the spec's instance (mirrors cmd/lllsolve).
func buildInstance(s JobSpec) (*model.Instance, error) {
	r := prng.New(s.Seed)
	switch s.Family {
	case FamilySinkless:
		var g *graph.Graph
		if s.Degree == 2 {
			g = graph.Cycle(s.N)
		} else {
			var err error
			g, err = graph.RandomRegular(s.N, s.Degree, r)
			if err != nil {
				return nil, err
			}
		}
		sk, err := apps.NewSinklessWithMargin(g, s.Margin)
		if err != nil {
			return nil, err
		}
		return sk.Instance, nil
	case FamilyHyper:
		h, err := hypergraph.RandomRegularRank3(s.N, s.Degree, r)
		if err != nil {
			return nil, err
		}
		hs, err := apps.NewHyperSinkless(h, s.Slack)
		if err != nil {
			return nil, err
		}
		return hs.Instance, nil
	case FamilyOrient3:
		h, err := hypergraph.RandomRegularRank3(s.N, s.Degree, r)
		if err != nil {
			return nil, err
		}
		t, err := apps.NewThreeOrientations(h)
		if err != nil {
			return nil, err
		}
		return t.Instance, nil
	case FamilyWeakSplit:
		adj, err := apps.RandomBiregular(s.N, 3, s.N, 3, r)
		if err != nil {
			return nil, err
		}
		w, err := apps.NewWeakSplitting(adj, s.N, s.Colors)
		if err != nil {
			return nil, err
		}
		return w.Instance, nil
	case FamilyInline:
		return spec.Load(bytes.NewReader(s.Instance))
	default:
		return nil, fmt.Errorf("unknown family %q", s.Family)
	}
}

// RunOptions carries the service-level configuration into RunSpec: the
// observability sinks, the per-job worker cap, and the daemon-wide
// fault-injection plan (merged with the job's own).
type RunOptions struct {
	Metrics    *obs.Registry
	Trace      *obs.Recorder
	MaxWorkers int
	Fault      fault.Plan
}

// RunSpec is the Service's default Runner: it builds the spec's instance
// and executes the chosen algorithm on it (runInstance).
func RunSpec(ctx context.Context, js JobSpec, att Attempt, emit func(Event), opts RunOptions) (*Summary, error) {
	js, err := js.withDefaults()
	if err != nil {
		return nil, err
	}
	bsp, _ := opts.Trace.StartSpan(ctx, "build_instance")
	inst, err := buildInstance(js)
	bsp.End()
	if err != nil {
		return nil, fmt.Errorf("building instance: %w", err)
	}
	return runInstance(ctx, js, inst, att, emit, opts)
}

// runInstance executes the normalized spec's algorithm on inst, the
// instance built from js, under ctx, emitting one "round" event per
// LOCAL/parallel round and returning the (possibly partial) Summary. Solo
// jobs reach it through RunSpec; batch members through runSolo, on the
// instance the batch already built.
//
// The attempt wires the recovery machinery: when the spec requests
// checkpointing, the runtime's periodic snapshots flow into
// att.SaveCheckpoint and att.Checkpoint (from a previous attempt) resumes
// the run — seq, mtseq and mtpar support this; the LOCAL-model algorithms
// (dist, mtdist) hold their state per simulated node and always restart.
// Fault injection resolves as opts.Fault merged with the job's plan, seeded
// (in priority order) by the job's fault_seed, the daemon seed, or the
// job's own seed — then mixed with the attempt number, so every retry draws
// an independent fault pattern.
func runInstance(ctx context.Context, js JobSpec, inst *model.Instance, att Attempt, emit func(Event), opts RunOptions) (*Summary, error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	// The run span wraps the algorithm execution; ctx carries it down so
	// the runtime's round / mt_iteration events parent to it.
	rsp, ctx := opts.Trace.StartSpan(ctx, "run")
	defer rsp.End()

	metrics, trace := opts.Metrics, opts.Trace
	sum := &Summary{
		Algorithm:      js.Algorithm,
		Family:         js.Family,
		NumEvents:      inst.NumEvents(),
		NumVars:        inst.NumVars(),
		ViolatedEvents: -1,
	}
	workers := js.Workers
	if opts.MaxWorkers > 0 && (workers == 0 || workers > opts.MaxWorkers) {
		workers = opts.MaxWorkers
	}
	plan := opts.Fault.Merge(js.faultPlan())
	if plan.Seed == 0 {
		plan.Seed = js.Seed
	}
	inj := fault.NewInjector(plan).Derive(uint64(att.Number))
	onRound := func(rs engine.RoundStats) {
		emit(Event{
			Kind:     "round",
			Round:    rs.Round,
			Steps:    rs.Steps,
			Messages: rs.Messages,
			Active:   rs.Active,
			Halted:   rs.Halted,
			Dropped:  rs.Dropped,
			Crashed:  rs.Crashed,
		})
	}
	lopts := local.Options{
		Ctx:       ctx,
		MaxRounds: js.MaxRounds,
		IDSeed:    js.Seed,
		Workers:   workers,
		OnRound:   onRound,
		Metrics:   metrics,
		Trace:     trace,
		Fault:     inj,
	}
	mtObs := mt.Observer{
		Metrics: metrics, Trace: trace, OnRound: onRound,
		CheckpointEvery: js.CheckpointEvery, OnCheckpoint: att.SaveCheckpoint, Resume: att.Checkpoint,
	}

	count := func(a *model.Assignment) error {
		if a == nil || !a.Complete() {
			return nil // cancelled before completion: count stays -1
		}
		sum.AssignmentHash = assignmentHash(a)
		v, err := inst.CountViolated(a)
		if err != nil {
			return err
		}
		sum.ViolatedEvents = v
		sum.Satisfied = v == 0
		return nil
	}

	switch js.Algorithm {
	case AlgSeq:
		res, rerr := core.FixSequentialCtx(ctx, inst, nil, core.Options{
			Metrics:         metrics,
			CheckpointEvery: js.CheckpointEvery,
			OnCheckpoint:    att.SaveCheckpoint,
			Resume:          att.Checkpoint,
		})
		if res != nil {
			sum.VarsFixed = res.Stats.VarsFixed
			if rerr == nil {
				sum.ViolatedEvents = res.Stats.FinalViolatedEvents
				sum.Satisfied = sum.ViolatedEvents == 0
				sum.AssignmentHash = assignmentHash(res.Assignment)
			}
		}
		return sum, rerr
	case AlgDist:
		var res *core.DistResult
		var rerr error
		if inst.Rank() <= 2 {
			res, rerr = core.FixDistributed2(inst, core.Options{Metrics: metrics}, lopts)
		} else {
			res, rerr = core.FixDistributed3(inst, core.Options{Metrics: metrics}, lopts)
		}
		if res != nil {
			sum.Rounds = res.TotalRounds
			sum.ColoringRounds = res.ColoringRounds
			sum.FixingRounds = res.FixingRounds
			sum.Classes = res.Classes
			sum.Messages = res.Messages
			sum.Steps = res.LocalStats.Steps
			if rerr == nil {
				sum.ViolatedEvents = res.ViolatedEvents
				sum.Satisfied = sum.ViolatedEvents == 0
				sum.AssignmentHash = assignmentHash(res.Assignment)
			}
		}
		return sum, rerr
	case AlgMTSeq:
		res, rerr := mt.SequentialCtx(ctx, inst, prng.New(js.Seed), js.MaxResamplings, mt.Observer{
			Metrics: metrics, Trace: trace,
			CheckpointEvery: js.CheckpointEvery, OnCheckpoint: att.SaveCheckpoint, Resume: att.Checkpoint,
		})
		if res != nil {
			sum.Resamplings = res.Resamplings
			sum.Satisfied = res.Satisfied
			if cerr := count(res.Assignment); cerr != nil {
				return sum, cerr
			}
		}
		return sum, rerr
	case AlgMTPar:
		res, rerr := mt.ParallelCtx(ctx, inst, prng.New(js.Seed), js.MaxRounds, mtObs)
		if res != nil {
			sum.Rounds = res.Rounds
			sum.Resamplings = res.Resamplings
			sum.Satisfied = res.Satisfied
			if cerr := count(res.Assignment); cerr != nil {
				return sum, cerr
			}
		}
		return sum, rerr
	case AlgMTDist:
		res, rerr := mt.Distributed(inst, js.Seed, js.MaxIters, lopts)
		if res != nil {
			sum.Rounds = res.Rounds
			sum.Iterations = res.Iterations
			sum.Resamplings = res.Resamplings
			sum.Messages = res.Messages
			sum.Steps = res.LocalStats.Steps
			sum.Satisfied = res.Satisfied
			if cerr := count(res.Assignment); cerr != nil {
				return sum, cerr
			}
		}
		return sum, rerr
	case AlgOneShot:
		a, violated, rerr := mt.OneShot(inst, prng.New(js.Seed))
		if rerr != nil {
			return sum, rerr
		}
		sum.ViolatedEvents = violated
		sum.Satisfied = violated == 0
		sum.AssignmentHash = assignmentHash(a)
		return sum, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", js.Algorithm)
	}
}

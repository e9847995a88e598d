package service

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/model"
)

// batchItem is one batch instance flowing through runBatch.
type batchItem struct {
	idx  int // 0-based batch position
	spec JobSpec
	inst *model.Instance
	key  uint64 // cache key; valid iff cacheable
}

// runBatch executes a batch job: every cache-eligible instance is first
// looked up in the canonical result cache, the misses are deduplicated
// in-batch by cache key, and each remaining instance then runs, in batch
// order, through the same code as a solo job with the same spec (runSolo)
// — so its result is the solo result, and entries written by a batch serve
// later solo jobs and vice versa. The event stream is multiplexed by the
// 1-based Event.Instance: each run's "round" events carry its instance id,
// and every instance ends with exactly one "instance_end" event, also when
// the batch is cancelled before the instance ran.
func (s *Service) runBatch(ctx context.Context, js JobSpec, att Attempt, emit func(Event)) (*Summary, error) {
	subs := js.Batch
	sum := &Summary{
		Algorithm: "batch",
		Family:    "batch",
		Instances: make([]InstanceSummary, len(subs)),
	}
	for i := range sum.Instances {
		sum.Instances[i] = InstanceSummary{Index: i + 1, Algorithm: subs[i].Algorithm, Seed: subs[i].Seed}
	}

	ended := make([]bool, len(subs))
	finishInstance := func(idx int, isum *Summary, err error) {
		ended[idx] = true
		is := &sum.Instances[idx]
		if err != nil {
			is.Err = err.Error()
			emit(Event{Kind: "instance_end", Instance: idx + 1, Err: is.Err})
			return
		}
		is.Satisfied = isum.Satisfied
		is.ViolatedEvents = isum.ViolatedEvents
		is.Rounds = isum.Rounds
		is.Resamplings = isum.Resamplings
		is.VarsFixed = isum.VarsFixed
		is.CacheHit = isum.CacheHit
		emit(Event{Kind: "instance_end", Instance: idx + 1, CacheHit: isum.CacheHit})
	}

	// Phase 1: serve cache hits, dedupe identical misses, build the
	// instances that actually have to run. Cache-eligible specs resolve
	// their key through the spec-identity memo first, so duplicates —
	// within this batch or across earlier jobs — never pay a second
	// instance build or canonical hash. The phase is timed as a
	// "batch_prepare" span under the job's trace.
	psp, _ := s.cfg.Trace.StartSpan(ctx, "batch_prepare")
	var leaders []*batchItem
	followers := make(map[uint64][]*batchItem) // cache key → same-key items behind a leader
	leaderByKey := make(map[uint64]*batchItem)
	var runErr error
	for i := range subs {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		sub := subs[i]
		it := &batchItem{idx: i, spec: sub}
		if s.cacheable(sub) {
			key, inst, err := s.jobKeyInst(sub)
			if err != nil {
				finishInstance(i, nil, fmt.Errorf("building instance: %w", err))
				continue
			}
			it.key, it.inst = key, inst
			if cached, ok := s.cache.get(it.key); ok {
				sum.NumEvents += cached.NumEvents
				sum.NumVars += cached.NumVars
				cached.CacheHit = true
				finishInstance(i, cached, nil)
				continue
			}
			if leader, ok := leaderByKey[it.key]; ok {
				// Identical instance earlier in this batch: solve once,
				// fan the result out below.
				sum.NumEvents += leader.inst.NumEvents()
				sum.NumVars += leader.inst.NumVars()
				followers[leader.key] = append(followers[leader.key], it)
				continue
			}
			leaderByKey[it.key] = it
		}
		if it.inst == nil {
			// Memo hit (key known, nothing built) but cache miss and no
			// in-batch leader yet: this item runs, so it needs its instance.
			inst, err := buildInstance(sub)
			if err != nil {
				if s.cacheable(sub) {
					delete(leaderByKey, it.key)
				}
				finishInstance(i, nil, fmt.Errorf("building instance: %w", err))
				continue
			}
			it.inst = inst
		}
		sum.NumEvents += it.inst.NumEvents()
		sum.NumVars += it.inst.NumVars()
		leaders = append(leaders, it)
	}
	psp.End()

	// Phase 2: run the misses one by one, so their round streams do not
	// interleave. Only cacheable items have followers, so a follower of a
	// completed leader is served the result the leader just stored.
	complete := func(it *batchItem, isum *Summary, err error) {
		if err == nil && s.cacheable(it.spec) {
			s.cache.put(it.key, isum)
		}
		finishInstance(it.idx, isum, err)
		for _, f := range followers[it.key] {
			if err != nil {
				finishInstance(f.idx, nil, err)
				continue
			}
			dup := cloneSummary(isum)
			dup.CacheHit = true
			finishInstance(f.idx, dup, nil)
		}
	}
	for _, it := range leaders {
		if runErr != nil {
			break
		}
		isum, err := s.runSolo(ctx, js.Workers, it, att, emit)
		complete(it, isum, err)
		if err != nil && ctx.Err() != nil {
			runErr = err
		}
	}
	// Members the cancellation stopped before they ran, and their in-batch
	// duplicates, end with the context error.
	if runErr != nil {
		for i, done := range ended {
			if !done {
				finishInstance(i, nil, ctx.Err())
			}
		}
	}

	// Aggregate. ViolatedEvents stays -1 (unknown) only if no instance
	// reported one.
	sum.Satisfied = len(subs) > 0
	for i := range sum.Instances {
		is := &sum.Instances[i]
		if is.Err != "" || !is.Satisfied {
			sum.Satisfied = false
		}
		sum.ViolatedEvents += is.ViolatedEvents
		sum.Resamplings += is.Resamplings
		sum.VarsFixed += is.VarsFixed
		if is.Rounds > sum.Rounds {
			sum.Rounds = is.Rounds
		}
		if is.CacheHit {
			sum.CacheHit = true // at least one instance was served cached
		}
	}
	return sum, runErr
}

// runSolo executes one batch instance through the ordinary single-job
// path on the instance the batch built, tagging its events with the
// instance id. A member that sets no Workers runs with the batch job's.
// The batch job's real attempt number is carried through so fault
// injection derives a fresh pattern on every batch retry, like solo jobs;
// per-instance checkpoints are dropped (the batch job record holds no
// sub-job state).
func (s *Service) runSolo(ctx context.Context, workers int, it *batchItem, att Attempt, emit func(Event)) (*Summary, error) {
	taggedEmit := func(e Event) {
		e.Instance = it.idx + 1
		emit(e)
	}
	js := it.spec
	if js.Workers == 0 {
		js.Workers = workers
	}
	subAtt := Attempt{Number: att.Number, SaveCheckpoint: func(*fault.Checkpoint) {}}
	return runInstance(ctx, js, it.inst, subAtt, taggedEmit, s.runOpts)
}

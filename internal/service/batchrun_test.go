package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// batchOf builds a batch JobSpec over the given sub-specs.
func batchOf(cache bool, subs ...JobSpec) JobSpec {
	return JobSpec{Cache: cache, Batch: subs}
}

// TestBatchMatchesSolo: every instance of a batch job reports exactly the
// counters the solo path produces for the same spec, for every algorithm —
// the batch execution is observationally identical to one job per
// instance.
func TestBatchMatchesSolo(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0) // no cache: pure execution equality

	subs := []JobSpec{
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 5},
		{Family: FamilySinkless, N: 24, Algorithm: AlgMTPar, Seed: 6},
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTSeq, Seed: 7},
		{Family: FamilySinkless, N: 16, Algorithm: AlgSeq, Seed: 1},
		{Family: FamilyHyper, N: 18, Algorithm: AlgOneShot, Seed: 8},
		{Family: FamilySinkless, N: 12, Algorithm: AlgDist, Seed: 9},
		{Family: FamilySinkless, N: 12, Algorithm: AlgMTDist, Seed: 10},
	}
	solo := make([]*Summary, len(subs))
	for i, sub := range subs {
		solo[i] = runJob(t, s, sub)
	}

	sum := runJob(t, s, batchOf(false, subs...))
	if len(sum.Instances) != len(subs) {
		t.Fatalf("batch summary has %d instances, want %d", len(sum.Instances), len(subs))
	}
	for i, is := range sum.Instances {
		want := solo[i]
		if is.Err != "" {
			t.Fatalf("instance %d failed: %s", i, is.Err)
		}
		if is.Index != i+1 {
			t.Errorf("instance %d has index %d, want %d", i, is.Index, i+1)
		}
		if is.Satisfied != want.Satisfied || is.ViolatedEvents != want.ViolatedEvents ||
			is.Rounds != want.Rounds || is.Resamplings != want.Resamplings || is.VarsFixed != want.VarsFixed {
			t.Errorf("instance %d diverges from solo:\nbatch: %+v\nsolo:  sat=%v violated=%d rounds=%d res=%d fixed=%d",
				i, is, want.Satisfied, want.ViolatedEvents, want.Rounds, want.Resamplings, want.VarsFixed)
		}
	}
	if !sum.Satisfied {
		t.Error("batch aggregate not satisfied although every instance is")
	}
}

// TestBatchInBatchDedup: identical instances inside one batch solve once;
// the copies are served as cache hits of the leader's result.
func TestBatchInBatchDedup(t *testing.T) {
	reg := obs.NewRegistry()
	s := realService(t, reg, 8)

	sub := JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 3}
	sum := runJob(t, s, batchOf(true, sub, sub, sub))
	hits := 0
	for _, is := range sum.Instances {
		if is.Err != "" {
			t.Fatalf("instance %d failed: %s", is.Index, is.Err)
		}
		if is.CacheHit {
			hits++
		}
		if is.Satisfied != sum.Instances[0].Satisfied || is.Rounds != sum.Instances[0].Rounds ||
			is.Resamplings != sum.Instances[0].Resamplings {
			t.Errorf("deduplicated instance %d differs from the leader: %+v vs %+v", is.Index, is, sum.Instances[0])
		}
	}
	if hits != 2 {
		t.Fatalf("%d of 3 identical instances were dedup hits, want 2", hits)
	}
	if got := reg.Counter("cache_stores_total").Value(); got != 1 {
		t.Errorf("cache_stores_total = %d, want 1 (only the leader solves)", got)
	}
}

// TestBatchSoloCacheInterchange: a cache entry written by a batch serves a
// later solo job bit-identically, and vice versa.
func TestBatchSoloCacheInterchange(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 8)

	sub := JobSpec{Family: FamilySinkless, N: 20, Algorithm: AlgMTPar, Seed: 11}

	// Batch populates, solo hits.
	bsum := runJob(t, s, batchOf(true, sub))
	withCache := sub
	withCache.Cache = true
	warm := runJob(t, s, withCache)
	if !warm.CacheHit {
		t.Fatal("solo job missed the cache entry a batch wrote")
	}
	is := bsum.Instances[0]
	if warm.Satisfied != is.Satisfied || warm.ViolatedEvents != is.ViolatedEvents ||
		warm.Rounds != is.Rounds || warm.Resamplings != is.Resamplings {
		t.Fatalf("solo hit differs from the batch result:\nsolo:  %+v\nbatch: %+v", warm, is)
	}

	// Solo populates, batch hits.
	sub2 := JobSpec{Family: FamilySinkless, N: 20, Algorithm: AlgMTSeq, Seed: 12}
	withCache2 := sub2
	withCache2.Cache = true
	cold := runJob(t, s, withCache2)
	bsum2 := runJob(t, s, batchOf(true, sub2))
	is2 := bsum2.Instances[0]
	if !is2.CacheHit {
		t.Fatal("batch instance missed the cache entry a solo job wrote")
	}
	if is2.Satisfied != cold.Satisfied || is2.Resamplings != cold.Resamplings {
		t.Fatalf("batch hit differs from the solo result:\nbatch: %+v\nsolo:  %+v", is2, cold)
	}
}

// TestBatchEvents: the NDJSON stream of a batch job is multiplexed by the
// 1-based instance id — one instance_end per instance plus job-level round
// events.
func TestBatchEvents(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0)

	subs := []JobSpec{
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 1},
		{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 2},
	}
	j, err := s.Submit(batchOf(false, subs...))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	events, _, _ := j.EventsSince(0)

	ends := map[int]bool{}
	rounds := 0
	for _, e := range events {
		switch e.Kind {
		case "instance_end":
			if e.Instance < 1 || e.Instance > len(subs) {
				t.Fatalf("instance_end with out-of-range instance id %d", e.Instance)
			}
			if ends[e.Instance] {
				t.Fatalf("duplicate instance_end for instance %d", e.Instance)
			}
			ends[e.Instance] = true
		case "round":
			rounds++
		}
	}
	if len(ends) != len(subs) {
		t.Fatalf("saw instance_end for %d instances, want %d", len(ends), len(subs))
	}
	if rounds == 0 {
		t.Error("batch job emitted no round events")
	}
}

// TestBatchCancelEndsEveryInstance: cancelling a batch mid-run still ends
// every member exactly once — the running one, the ones that never started
// and their in-batch duplicates — and the members that did not complete
// carry the cancellation as their error.
func TestBatchCancelEndsEveryInstance(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 8)

	var subs []JobSpec
	for range 2 {
		for seed := uint64(1); seed <= 3; seed++ {
			subs = append(subs, JobSpec{Family: FamilySinkless, N: 1024, Algorithm: AlgDist, Seed: seed})
		}
	}
	j, err := s.Submit(batchOf(true, subs...))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the first member streams a round.
	for from, started := 0, false; !started; {
		events, more, state := j.EventsSince(from)
		from += len(events)
		for _, e := range events {
			started = started || e.Kind == "round"
		}
		if !started {
			if state.Terminal() {
				t.Fatalf("batch finished in state %q before it streamed a round", state)
			}
			<-more
		}
	}
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled)

	events, _, _ := j.EventsSince(0)
	ends := make(map[int]int)
	for _, e := range events {
		if e.Kind == "instance_end" {
			ends[e.Instance]++
		}
	}
	for i := 1; i <= len(subs); i++ {
		if ends[i] != 1 {
			t.Errorf("instance %d has %d instance_end events, want 1", i, ends[i])
		}
	}
	sum := j.View().Result
	if sum == nil || len(sum.Instances) != len(subs) {
		t.Fatalf("cancelled batch result = %+v, want %d instance summaries", sum, len(subs))
	}
	if last := sum.Instances[len(subs)-1]; !strings.Contains(last.Err, context.Canceled.Error()) {
		t.Errorf("last instance err = %q, want the cancellation", last.Err)
	}
}

// TestBatchPartialFailure: a broken instance fails alone; the rest of the
// batch completes and the aggregate reports unsatisfied.
func TestBatchPartialFailure(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0)

	sum := runJob(t, s, batchOf(false,
		JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 1},
		JobSpec{Family: FamilyInline, Instance: []byte(`{"broken":`), Algorithm: AlgMTPar, Seed: 2},
	))
	good, bad := sum.Instances[0], sum.Instances[1]
	if good.Err != "" || !good.Satisfied {
		t.Fatalf("healthy instance affected by sibling failure: %+v", good)
	}
	if bad.Err == "" {
		t.Fatal("broken inline instance reported no error")
	}
	if sum.Satisfied {
		t.Error("aggregate satisfied although an instance failed")
	}
}

// TestBatchSpecValidation: nested batches and oversized batches are
// rejected at submit time.
func TestBatchSpecValidation(t *testing.T) {
	s := realService(t, obs.NewRegistry(), 0)

	nested := batchOf(false, batchOf(false, JobSpec{}))
	if _, err := s.Submit(nested); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("nested batch: err = %v, want nested-batch rejection", err)
	}

	big := JobSpec{Batch: make([]JobSpec, maxBatch+1)}
	if _, err := s.Submit(big); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestBatchRequestJobSpec: the HTTP wire format stamps templates, applies
// seed policies, and validates count/seed agreement.
func TestBatchRequestJobSpec(t *testing.T) {
	tmpl := JobSpec{Family: FamilySinkless, N: 16, Algorithm: AlgMTPar, Seed: 10}

	js, err := BatchRequest{Template: tmpl, Count: 3, VarySeed: true, Cache: true}.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Batch) != 3 || !js.Cache {
		t.Fatalf("stamped batch = %+v", js)
	}
	for i, sub := range js.Batch {
		if sub.Seed != 10+uint64(i) {
			t.Errorf("instance %d seed = %d, want %d", i, sub.Seed, 10+uint64(i))
		}
	}

	js, err = BatchRequest{Template: tmpl, Seeds: []uint64{7, 8}}.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Batch) != 2 || js.Batch[0].Seed != 7 || js.Batch[1].Seed != 8 {
		t.Fatalf("seeded batch = %+v", js.Batch)
	}

	js, err = BatchRequest{Template: tmpl, Count: 4}.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range js.Batch {
		if sub.Seed != 10 {
			t.Errorf("identical stamping changed the seed: %d", sub.Seed)
		}
	}

	if _, err := (BatchRequest{Template: tmpl}).JobSpec(); err == nil {
		t.Error("empty batch request accepted")
	}
	if _, err := (BatchRequest{Template: tmpl, Count: 2, Seeds: []uint64{1, 2, 3}}.JobSpec()); err == nil {
		t.Error("count/seeds mismatch accepted")
	}
}

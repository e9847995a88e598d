package service

import (
	"container/list"
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"

	"repro/internal/batch"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/prng"
)

// cacheKey derives the result-cache key of a normalized spec over its built
// instance. It folds together everything that can influence the Summary:
// the instance-determining spec fields (family, size, generation parameters
// and — for family "inline" — the raw instance bytes), the canonical
// instance hash on top of them, the algorithm, the seed driving the
// generators, resamplers and LOCAL identifiers, and the termination budgets.
// The WL hash alone is NOT sufficient as an instance identity: it is
// complete only up to WL distinguishability, and mtseq/seq results depend
// on event index order, which relabeling changes — so WL-indistinguishable
// but distinct instances (e.g. two relabeled inline submissions) must not
// share an entry. Folding the generation parameters makes the key exact
// (the builders are deterministic functions of them) while the WL hash
// still collapses provably-identical builds that differ only in spec
// encoding. Deliberately EXCLUDED: Workers (the engine determinism contract
// makes results identical for every worker count, so jobs differing only in
// workers share an entry), retry/timeout/checkpoint plumbing (they change
// how a result is produced, not what it is — failed or partial results are
// never cached), and the batch/cache fields themselves.
func cacheKey(js JobSpec, h uint64) uint64 {
	k := prng.Mix64(h ^ 0xcac4e)
	mixBytes := func(b []byte) {
		k = prng.Mix64(k ^ uint64(len(b)))
		for _, c := range b {
			k = prng.Mix64(k ^ uint64(c))
		}
	}
	mixBytes([]byte(js.Family))
	k = prng.Mix64(k ^ uint64(js.N))
	k = prng.Mix64(k ^ uint64(js.Degree))
	k = prng.Mix64(k ^ math.Float64bits(js.Margin))
	k = prng.Mix64(k ^ math.Float64bits(js.Slack))
	k = prng.Mix64(k ^ uint64(js.Colors))
	mixBytes(js.Instance)
	mixBytes([]byte(js.Algorithm))
	k = prng.Mix64(k ^ js.Seed)
	k = prng.Mix64(k ^ uint64(js.MaxRounds))
	k = prng.Mix64(k ^ uint64(js.MaxResamplings))
	k = prng.Mix64(k ^ uint64(js.MaxIters))
	return k
}

// cacheable reports whether a job's result may be served from / stored
// into the cache: the spec must opt in, and the merged fault-injection
// plan must be inert (injected faults make runs attempt-dependent).
func (s *Service) cacheable(js JobSpec) bool {
	if !js.Cache || s.cache == nil {
		return false
	}
	plan := s.cfg.Fault.Merge(js.faultPlan())
	return plan.PanicRate == 0 && plan.DropRate == 0 && plan.CrashRate == 0
}

// specIdent is the memoization identity of a normalized spec: its JSON
// encoding. Two specs with the same identity build the same instance and
// therefore share the same cache key, so the key computation (instance
// build + canonical hash) only ever runs once per distinct spec.
func specIdent(js JobSpec) string {
	b, err := json.Marshal(js)
	if err != nil {
		return "" // unmemoizable; the caller computes the key directly
	}
	return string(b)
}

// keyMemo is the bounded spec-identity → cache-key memo. The mapping is a
// pure function of the spec, so entries never invalidate; when the memo
// fills up it is simply reset.
type keyMemo struct {
	mu  sync.Mutex
	cap int
	m   map[string]uint64
}

func newKeyMemo(capacity int) *keyMemo {
	return &keyMemo{cap: capacity, m: make(map[string]uint64, capacity)}
}

func (k *keyMemo) get(id string) (uint64, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	key, ok := k.m[id]
	return key, ok
}

func (k *keyMemo) put(id string, key uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.m) >= k.cap {
		k.m = make(map[string]uint64, k.cap)
	}
	k.m[id] = key
}

// jobKeyInst resolves the spec's cache key. On a memo hit the key comes
// straight from the spec-identity memo and no instance is built (inst is
// nil) — this is what makes a warm cache hit orders of magnitude cheaper
// than a solve. On a miss the instance is built and canonically hashed;
// the built instance is returned so callers that need it anyway (the batch
// runner) do not build twice.
func (s *Service) jobKeyInst(js JobSpec) (key uint64, inst *model.Instance, err error) {
	id := specIdent(js)
	if id != "" {
		if key, ok := s.keys.get(id); ok {
			return key, nil, nil
		}
	}
	inst, err = buildInstance(js)
	if err != nil {
		return 0, nil, err
	}
	key = cacheKey(js, batch.Hash(inst))
	if id != "" {
		s.keys.put(id, key)
	}
	return key, inst, nil
}

// resultCache is an LRU map from cache keys to completed job Summaries.
// Entries are deep-copied on both put and get, so cached results are
// immutable and every hit returns bit-identical bytes.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[uint64]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	stores    *obs.Counter
	entries   *obs.Gauge
}

type cacheEntry struct {
	key uint64
	sum Summary
	// hits counts get() hits on this entry — the hot-entry signal driving
	// replication to the ring successor. Seeded (not reset) by warm
	// handoffs so a migrated entry keeps its heat.
	hits int64
}

// hotEntry is one cache entry exported for handoff / replication.
type hotEntry struct {
	key  uint64
	hits int64
	sum  *Summary
}

func newResultCache(capacity int, reg *obs.Registry) *resultCache {
	return &resultCache{
		cap:       capacity,
		ll:        list.New(),
		items:     make(map[uint64]*list.Element, capacity),
		hits:      reg.Counter("cache_hits_total"),
		misses:    reg.Counter("cache_misses_total"),
		evictions: reg.Counter("cache_evictions_total"),
		stores:    reg.Counter("cache_stores_total"),
		entries:   reg.Gauge("cache_entries"),
	}
}

// get returns a copy of the cached summary for key, if present, and marks
// the entry most recently used.
func (c *resultCache) get(key uint64) (*Summary, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	entry := el.Value.(*cacheEntry)
	entry.hits++
	sum := cloneSummary(&entry.sum)
	return sum, true
}

// put stores a copy of sum under key, evicting the least recently used
// entry beyond capacity.
func (c *resultCache) put(key uint64, sum *Summary) {
	c.putHot(key, sum, 0)
}

// putHot stores a copy of sum under key with a starting hit count —
// warm handoffs use it so a migrated entry keeps its heat. The hit count
// only ever grows (a replica landing on a node that already served the
// entry must not cool it down).
func (c *resultCache) putHot(key uint64, sum *Summary, hits int64) {
	if sum == nil {
		return
	}
	cp := cloneSummary(sum)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*cacheEntry)
		entry.sum = *cp
		if hits > entry.hits {
			entry.hits = hits
		}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, sum: *cp, hits: hits})
	c.stores.Inc()
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.entries.Set(float64(c.ll.Len()))
}

// snapshotIf returns copies of every entry whose key passes the filter
// (nil matches all) — the handoff export. Entries come out in LRU order,
// most recently used first, so a rate-bounded transfer that is cut short
// has already moved the entries most likely to be asked for.
func (c *resultCache) snapshotIf(filter func(key uint64) bool) []hotEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]hotEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entry := el.Value.(*cacheEntry)
		if filter != nil && !filter(entry.key) {
			continue
		}
		out = append(out, hotEntry{key: entry.key, hits: entry.hits, sum: cloneSummary(&entry.sum)})
	}
	return out
}

// topHot returns copies of the k hottest entries passing the filter,
// hit-count descending — the replication candidate set.
func (c *resultCache) topHot(k int, filter func(key uint64) bool) []hotEntry {
	if k <= 0 {
		return nil
	}
	all := c.snapshotIf(filter)
	sort.SliceStable(all, func(i, j int) bool { return all[i].hits > all[j].hits })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cloneSummary deep-copies a Summary (Instances included).
func cloneSummary(s *Summary) *Summary {
	cp := *s
	if s.Instances != nil {
		cp.Instances = append([]InstanceSummary(nil), s.Instances...)
	}
	return &cp
}

// flightGroup collapses concurrent identical jobs: the first job to reach
// the scheduler with a given cache key becomes the leader and solves; jobs
// with the same key that start while the leader is in flight wait for it
// and receive the leader's stored summary directly from the flight entry.
// Handing the result over in the entry (instead of re-reading the cache)
// makes followers immune to LRU eviction racing the leader's store: an
// entry evicted between the leader's put and the follower's wake-up can
// neither lose the result nor force a second solve — the concurrency test
// TestCacheEvictRacesSingleFlight pins this. Followers only ever wait on
// a job that is already running in another scheduler slot, so the wait
// graph has depth one and cannot deadlock; a follower whose leader fails
// (or whose own context is cancelled) falls back to solving itself.
type flightGroup struct {
	mu      sync.Mutex
	flights map[uint64]*flight
	waits   *obs.Counter
}

// flight is one in-progress solve. done is closed on completion; sum is
// the leader's completed summary (nil when the leader failed or produced
// a partial result), written before done closes.
type flight struct {
	done chan struct{}
	sum  *Summary
}

// result returns a deep copy of the leader's stored summary (nil when the
// leader failed). Only valid after done is closed.
func (f *flight) result() *Summary {
	if f.sum == nil {
		return nil
	}
	return cloneSummary(f.sum)
}

func newFlightGroup(reg *obs.Registry) *flightGroup {
	return &flightGroup{
		flights: make(map[uint64]*flight),
		waits:   reg.Counter("cache_singleflight_waits_total"),
	}
}

// begin either registers the caller as the leader for key (leader=true) or
// returns the in-flight leader's flight entry to wait on.
func (f *flightGroup) begin(key uint64) (fl *flight, leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.flights[key]; ok {
		return fl, false
	}
	fl = &flight{done: make(chan struct{})}
	f.flights[key] = fl
	return fl, true
}

// complete releases the leadership for key, stores the leader's summary
// (nil for failed/partial attempts) in the entry and wakes all waiting
// followers.
func (f *flightGroup) complete(key uint64, sum *Summary) {
	f.mu.Lock()
	fl := f.flights[key]
	delete(f.flights, key)
	f.mu.Unlock()
	if fl != nil {
		fl.sum = sum
		close(fl.done)
	}
}

// wait blocks until the leader completes or ctx is done.
func (f *flightGroup) wait(ctx context.Context, fl *flight) error {
	f.waits.Inc()
	select {
	case <-fl.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runCached wraps one attempt of a cache-enabled single job: serve from the
// cache when possible, otherwise solve as the single-flight leader (or wait
// for one) and populate the cache with the completed result. In a cluster,
// a leader on a non-owner node first asks the key's home node through the
// peer fill protocol — a warm entry anywhere in the cluster is served
// without re-solving, and a completed solve is written through to the home
// node so later jobs find it wherever they land.
func (s *Service) runCached(ctx context.Context, js JobSpec, att Attempt, emit func(Event), run Runner) (*Summary, error) {
	key, _, err := s.jobKeyInst(js)
	if err != nil {
		return nil, err
	}
	var fl *flight
	for {
		if sum, ok := s.cache.get(key); ok {
			sum.CacheHit = true
			emit(Event{Kind: "cache_hit", Attempt: att.Number})
			return sum, nil
		}
		var leader bool
		fl, leader = s.flights.begin(key)
		if leader {
			break
		}
		if err := s.flights.wait(ctx, fl); err != nil {
			return nil, err
		}
		if sum := fl.result(); sum != nil {
			sum.CacheHit = true
			emit(Event{Kind: "cache_hit", Attempt: att.Number})
			return sum, nil
		}
		// Leader failed: loop and retry leadership ourselves.
	}
	// Local leader. Hold the cluster claim too (when clustered and this
	// node owns the key), so peers asking the owner wait instead of
	// double-solving.
	heldClaim := false
	if s.peers != nil {
		heldClaim = s.peers.claimLocal(key)
		if sum, ok := s.peers.fill(ctx, key); ok {
			s.cache.put(key, sum)
			stored := cloneSummary(sum)
			s.flights.complete(key, stored)
			if heldClaim {
				s.peers.releaseLocal(key)
			}
			sum.CacheHit = true
			emit(Event{Kind: "cache_hit", Attempt: att.Number, Peer: true})
			return sum, nil
		}
	}
	sum, err := run(ctx, js, att, emit)
	stored := err == nil && sum != nil && !sum.Partial
	if stored {
		s.cache.put(key, sum)
		s.flights.complete(key, sum)
	} else {
		s.flights.complete(key, nil)
	}
	if heldClaim {
		s.peers.releaseLocal(key)
	}
	if stored && s.peers != nil {
		s.peers.store(ctx, key, sum)
	}
	return sum, err
}

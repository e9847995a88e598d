package kernel

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/model"
	"repro/internal/prng"
)

// The equivalence-test layer of the kernel package: every compiled table is
// checked against the generic representation it was compiled from, and every
// kernel query (Violated, CondProb/CondProbWith/Inc, CountViolatedModel,
// SampleVar) is differentially tested against the model package on
// randomized assignments — bitwise, via math.Float64bits, because the fixers
// branch on exact float comparisons and the golden tables pin exact output.

type namedInstance struct {
	name string
	inst *model.Instance
}

// testInstances covers every compiled event kind and CSR shape: conjunction
// events on cycles, irregular random-regular graphs and rank-3 hypergraphs
// (the paper's T2/T4 substrates), all-equal events (the coloring/weak-
// splitting family), generic closure events (noisy sinkless), star-shaped
// variable sharing, isolated dependency-graph nodes, isolated variables and
// a 70-value distribution that forces both the 8-bit packed width and the
// conjunction-mask fallback to the generic evaluator.
func testInstances(t *testing.T) []namedInstance {
	t.Helper()
	var out []namedInstance
	add := func(name string, inst *model.Instance, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out = append(out, namedInstance{name, inst})
	}

	s, err := apps.NewSinklessWithMargin(graph.Cycle(12), 0.9)
	add("cycle-12", s.Instance, err)

	g, err := graph.RandomRegular(20, 3, prng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	s, err = apps.NewSinklessWithMargin(g, 0.85)
	add("regular-20", s.Instance, err)

	h, err := hypergraph.RandomRegularRank3(18, 2, prng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	hs, err := apps.NewHyperSinkless(h, 0.5)
	add("hyper-18", hs.Instance, err)

	rc, err := apps.NewRandomConjunction(h, 3, 0.5, prng.New(43))
	add("conjunction-18", rc.Instance, err)

	vn, err := apps.RandomBiregular(12, 2, 8, 3, prng.New(44))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := apps.NewWeakSplitting(vn, 8, 2)
	add("weaksplit-12x8", ws.Instance, err)

	ns, err := apps.NewNoisySinkless(graph.Cycle(10), 0.1)
	add("noisysink-10", ns.Instance, err)

	add("manual-mixed", manualMixedInstance(t), nil)
	return out
}

// manualMixedInstance hand-builds the shapes the app constructors never
// produce: an isolated variable (in no event), an isolated dependency-graph
// node (an event sharing no variable), a star of conjunctions around one hub
// variable, an all-equal event over unequal value spaces, a raw-closure
// generic event, and a 70-value variable whose conjunction cannot be
// compiled into a 64-bit mask.
func manualMixedInstance(t *testing.T) *model.Instance {
	t.Helper()
	b := model.NewBuilder()
	d2 := dist.Uniform(2)
	d3 := dist.Uniform(3)
	d4 := dist.Uniform(4)
	d70 := dist.Uniform(70)
	dists := []*dist.Distribution{d3, d3, d3, d3, d2, d2, d70, d4, d2, d2}
	for i, d := range dists {
		b.AddVariable(d, "")
		_ = i
	}
	// Star: events 0-2 all share hub variable 0.
	model.AddConjunctionEvent(b, []int{0, 1}, [][]int{{0}, {1, 2}}, []*dist.Distribution{d3, d3}, "star-a")
	model.AddConjunctionEvent(b, []int{0, 2}, [][]int{{1}, {0}}, []*dist.Distribution{d3, d3}, "star-b")
	model.AddConjunctionEvent(b, []int{0, 3}, [][]int{{2}, {0, 1}}, []*dist.Distribution{d3, d3}, "star-c")
	// All-equal over unequal value spaces (3-valued vs 4-valued).
	model.AddAllEqualEvent(b, []int{3, 7}, []*dist.Distribution{d3, d4}, "alleq")
	// Conjunction on the 70-value variable: the bad set does not fit a
	// 64-bit mask, so the kernel must fall back to the generic evaluator.
	model.AddConjunctionEvent(b, []int{6, 4}, [][]int{{0, 65, 69}, {1}}, []*dist.Distribution{d70, d2}, "wide")
	// Raw closure with no CondProb spec (model enumerates it).
	b.AddEvent([]int{1, 5}, func(vals []int) bool {
		return vals[0] == vals[1]
	}, nil, "raw")
	// Isolated dependency-graph node: variable 9 appears nowhere else.
	model.AddConjunctionEvent(b, []int{9}, [][]int{{1}}, []*dist.Distribution{d2}, "lone")
	// Variable 8 is isolated: it belongs to no event at all.
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func compileFor(t *testing.T, ni namedInstance) *Compiled {
	t.Helper()
	c, err := Compile(ni.inst)
	if err != nil {
		t.Fatalf("%s: Compile: %v", ni.name, err)
	}
	return c
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomComplete fixes every variable to a value drawn from its own
// distribution.
func randomComplete(inst *model.Instance, r *prng.Rand) *model.Assignment {
	a := model.NewAssignment(inst)
	for v := 0; v < inst.NumVars(); v++ {
		a.Fix(v, inst.Var(v).Dist.Sample(r))
	}
	return a
}

// randomPartial fixes each variable with probability 1/2.
func randomPartial(inst *model.Instance, r *prng.Rand) *model.Assignment {
	a := model.NewAssignment(inst)
	for v := 0; v < inst.NumVars(); v++ {
		if r.Uint64()&1 == 0 {
			a.Fix(v, inst.Var(v).Dist.Sample(r))
		}
	}
	return a
}

// TestCompileCSRMatchesInstance pins the CSR arrays against the generic
// representation they were compiled from: event scopes in declaration order,
// dependency-graph neighbor rows in graph.Graph.Neighbors order, and the
// variable->events rows in Variable.Events order.
func TestCompileCSRMatchesInstance(t *testing.T) {
	for _, ni := range testInstances(t) {
		ni := ni
		t.Run(ni.name, func(t *testing.T) {
			c := compileFor(t, ni)
			inst := ni.inst
			if c.NumVars() != inst.NumVars() || c.NumEvents() != inst.NumEvents() {
				t.Fatalf("dims (%d,%d) != (%d,%d)",
					c.NumVars(), c.NumEvents(), inst.NumVars(), inst.NumEvents())
			}
			g := inst.DependencyGraph()
			maxScope := 0
			for e := 0; e < inst.NumEvents(); e++ {
				ev := inst.Event(e)
				if got := c.Scope(e); !equalInts(got, ev.Scope) {
					t.Errorf("event %d scope %v != %v", e, got, ev.Scope)
				}
				if got, want := c.Neighbors(e), g.Neighbors(e); !equalInts(got, want) {
					t.Errorf("event %d neighbors %v != %v", e, got, want)
				}
				if len(ev.Scope) > maxScope {
					maxScope = len(ev.Scope)
				}
			}
			if c.maxScope != maxScope {
				t.Errorf("maxScope %d != %d", c.maxScope, maxScope)
			}
			for v := 0; v < inst.NumVars(); v++ {
				if got, want := c.VarEvents(v), inst.Var(v).Events; !equalInts(got, want) {
					t.Errorf("var %d events %v != %v", v, got, want)
				}
			}
			if want := (inst.NumEvents() + 63) / 64; c.eventWords() != want {
				t.Errorf("eventWords %d != %d", c.eventWords(), want)
			}
		})
	}
}

// TestCompileKinds white-boxes the event classification: the app families
// compile to their closed forms, and the hand-built instance exercises every
// fallback (wide conjunction, raw closure).
func TestCompileKinds(t *testing.T) {
	for _, ni := range testInstances(t) {
		c := compileFor(t, ni)
		generic := 0
		for e := 0; e < c.NumEvents(); e++ {
			if c.kind[e] == kindGeneric {
				generic++
			}
		}
		if c.hasGeneric != (generic > 0) {
			t.Errorf("%s: hasGeneric %v with %d generic events", ni.name, c.hasGeneric, generic)
		}
		switch ni.name {
		case "cycle-12", "regular-20", "hyper-18", "conjunction-18":
			if generic != 0 {
				t.Errorf("%s: %d events fell back to generic, want 0", ni.name, generic)
			}
		case "noisysink-10":
			if generic == 0 {
				t.Errorf("%s: expected generic closure events", ni.name)
			}
		}
	}

	c := compileFor(t, namedInstance{"manual-mixed", manualMixedInstance(t)})
	wantKinds := map[int]uint8{
		0: kindConj, 1: kindConj, 2: kindConj, // star
		3: kindAllEqual,
		4: kindGeneric, // 70-value conjunction: no 64-bit mask
		5: kindGeneric, // raw closure
		6: kindConj,    // isolated event
	}
	for e, want := range wantKinds {
		if c.kind[e] != want {
			t.Errorf("manual-mixed event %d kind %d, want %d", e, c.kind[e], want)
		}
	}
	if c.valBits != 8 {
		t.Errorf("manual-mixed valBits %d, want 8 (70-value variable)", c.valBits)
	}
}

// TestViolatedMatchesGeneric is the core differential test: on random
// complete assignments, the word-parallel bitset scan must return exactly
// the events the generic model.Instance.Violated loop reports, in ascending
// order, for every worker count.
func TestViolatedMatchesGeneric(t *testing.T) {
	workerSweep := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	pools := make([]*engine.Pool, len(workerSweep))
	for i, w := range workerSweep {
		pools[i] = engine.New(w)
		defer pools[i].Close()
	}
	for _, ni := range testInstances(t) {
		ni := ni
		t.Run(ni.name, func(t *testing.T) {
			c := compileFor(t, ni)
			ka := c.NewAssignment()
			scr := c.NewScratch()
			r := prng.New(99)
			for trial := 0; trial < 5; trial++ {
				ma := randomComplete(ni.inst, r)
				var want []int
				for e := 0; e < ni.inst.NumEvents(); e++ {
					bad, err := ni.inst.Violated(e, ma)
					if err != nil {
						t.Fatal(err)
					}
					if bad {
						want = append(want, e)
					}
				}
				ka.PackFrom(ma)
				for i, pool := range pools {
					got, err := c.Violated(ka, pool, scr)
					if err != nil {
						t.Fatal(err)
					}
					if !equalInts(got, want) {
						t.Fatalf("trial %d workers=%d: violated %v != %v",
							trial, workerSweep[i], got, want)
					}
				}
			}

			// A partial assignment must error like the generic path.
			ka.PackFrom(randomPartial(ni.inst, prng.New(5)))
			if ka.Complete() {
				ka.Unfix(0)
			}
			if _, err := c.Violated(ka, pools[0], scr); !errors.Is(err, model.ErrNotFixed) {
				t.Errorf("incomplete scan error = %v, want ErrNotFixed", err)
			}
		})
	}
}

// TestHasLowerViolatedNeighbor checks the parallel-round priority test
// against a brute-force walk of the dependency graph.
func TestHasLowerViolatedNeighbor(t *testing.T) {
	for _, ni := range testInstances(t) {
		c := compileFor(t, ni)
		g := ni.inst.DependencyGraph()
		r := prng.New(7)
		bits := make([]uint64, c.eventWords())
		for trial := 0; trial < 4; trial++ {
			for i := range bits {
				bits[i] = r.Uint64()
			}
			for e := 0; e < c.NumEvents(); e++ {
				want := false
				for _, u := range g.Neighbors(e) {
					if u < e && bits[u>>6]>>(uint(u)&63)&1 == 1 {
						want = true
						break
					}
				}
				if got := c.HasLowerViolatedNeighbor(bits, e); got != want {
					t.Fatalf("%s: event %d: HasLowerViolatedNeighbor=%v want %v", ni.name, e, got, want)
				}
			}
		}
	}
}

// TestCondProbBitwise pits the flat closed-form probability tables against
// the model closures on random partial assignments, demanding bit-for-bit
// identical floats from CondProb, CondProbWith and Inc — including the
// varID-override-wins rule and queries on variables outside the scope.
func TestCondProbBitwise(t *testing.T) {
	for _, ni := range testInstances(t) {
		ni := ni
		t.Run(ni.name, func(t *testing.T) {
			c := compileFor(t, ni)
			inst := ni.inst
			r := prng.New(123)
			for trial := 0; trial < 6; trial++ {
				ma := randomPartial(inst, r)
				for e := 0; e < inst.NumEvents(); e++ {
					got, want := c.CondProb(e, ma), inst.CondProb(e, ma)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d event %d: CondProb %v != %v", trial, e, got, want)
					}
					for _, vid := range inst.Event(e).Scope {
						size := inst.Var(vid).Dist.Size()
						if size > 5 {
							size = 5
						}
						for val := 0; val < size; val++ {
							got = c.CondProbWith(e, ma, vid, val)
							want = inst.CondProbWith(e, ma, vid, val)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("trial %d event %d var %d=%d: CondProbWith %v != %v",
									trial, e, vid, val, got, want)
							}
							got = c.Inc(e, ma, vid, val)
							want = inst.Inc(e, ma, vid, val)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("trial %d event %d var %d=%d: Inc %v != %v",
									trial, e, vid, val, got, want)
							}
						}
					}
					// A variable outside the scope must be a no-op override.
					if out := outsideScope(inst, e); out >= 0 {
						got = c.CondProbWith(e, ma, out, 0)
						want = inst.CondProbWith(e, ma, out, 0)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d event %d outside var %d: CondProbWith %v != %v",
								trial, e, out, got, want)
						}
					}
				}
			}
		})
	}
}

// outsideScope returns a variable id not in event e's scope, or -1.
func outsideScope(inst *model.Instance, e int) int {
	in := map[int]bool{}
	for _, vid := range inst.Event(e).Scope {
		in[vid] = true
	}
	for v := 0; v < inst.NumVars(); v++ {
		if !in[v] {
			return v
		}
	}
	return -1
}

// TestCountViolatedModelMatchesGeneric checks the allocation-free final
// sweep, including the shared error path on partial assignments.
func TestCountViolatedModelMatchesGeneric(t *testing.T) {
	for _, ni := range testInstances(t) {
		c := compileFor(t, ni)
		r := prng.New(17)
		for trial := 0; trial < 4; trial++ {
			ma := randomComplete(ni.inst, r)
			got, gerr := c.CountViolatedModel(ma)
			want, werr := ni.inst.CountViolated(ma)
			if gerr != nil || werr != nil {
				t.Fatalf("%s: errors %v / %v", ni.name, gerr, werr)
			}
			if got != want {
				t.Fatalf("%s: CountViolated %d != %d", ni.name, got, want)
			}
		}
		ma := model.NewAssignment(ni.inst)
		_, gerr := c.CountViolatedModel(ma)
		_, werr := ni.inst.CountViolated(ma)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%s: partial-assignment errors diverge: %v / %v", ni.name, gerr, werr)
		}
	}
}

// TestSampleVarMatchesDist feeds two identical PRNG streams through the
// kernel sampler and dist.Distribution.Sample and demands identical value
// sequences — the resamplers rely on this for cross-path bit-identity.
func TestSampleVarMatchesDist(t *testing.T) {
	for _, ni := range testInstances(t) {
		c := compileFor(t, ni)
		rk, rg := prng.New(31), prng.New(31)
		for trial := 0; trial < 50; trial++ {
			v := trial % ni.inst.NumVars()
			got := c.SampleVar(v, rk)
			want := ni.inst.Var(v).Dist.Sample(rg)
			if got != want {
				t.Fatalf("%s: draw %d of var %d: %d != %d", ni.name, trial, v, got, want)
			}
		}
	}
}

// TestAssignmentMirrorsModel runs a randomized Fix/Unfix/Set sequence
// against both representations and checks they agree after every operation,
// then round-trips through PackFrom/UnpackTo.
func TestAssignmentMirrorsModel(t *testing.T) {
	for _, ni := range testInstances(t) {
		c := compileFor(t, ni)
		inst := ni.inst
		ka := c.NewAssignment()
		ma := model.NewAssignment(inst)
		r := prng.New(77)
		for step := 0; step < 200; step++ {
			v := r.Intn(inst.NumVars())
			val := inst.Var(v).Dist.Sample(r)
			switch r.Intn(3) {
			case 0:
				if !ma.Fixed(v) {
					ma.Fix(v, val)
					ka.Fix(v, val)
				}
			case 1:
				if ma.Fixed(v) {
					ma.Unfix(v)
					ka.Unfix(v)
				}
			default: // Set: fix-or-overwrite
				if ma.Fixed(v) {
					ma.Unfix(v)
				}
				ma.Fix(v, val)
				ka.Set(v, val)
			}
			if ka.NumFixed() != ma.NumFixed() || ka.Complete() != ma.Complete() {
				t.Fatalf("%s step %d: counters diverge", ni.name, step)
			}
			if ma.Fixed(v) != ka.Fixed(v) {
				t.Fatalf("%s step %d: Fixed(%d) diverges", ni.name, step, v)
			}
			if ma.Fixed(v) && ma.Value(v) != ka.Value(v) {
				t.Fatalf("%s step %d: Value(%d) %d != %d", ni.name, step, v, ka.Value(v), ma.Value(v))
			}
		}
		// model.Unfix leaves the stale value behind while the packed form
		// zeroes it, so only fixed slots are comparable.
		kv, kf := ka.Values()
		mv, mf := ma.Values()
		for v := range kv {
			if kf[v] != mf[v] || (kf[v] && kv[v] != mv[v]) {
				t.Fatalf("%s: Values() diverge at %d", ni.name, v)
			}
		}
		// Round trip: model -> packed -> model.
		ka2 := c.NewAssignment()
		ka2.PackFrom(ma)
		back := ka2.UnpackTo()
		bv, bf := back.Values()
		for v := range bv {
			if bf[v] != mf[v] || (bf[v] && bv[v] != mv[v]) {
				t.Fatalf("%s: PackFrom/UnpackTo round trip diverges at %d", ni.name, v)
			}
		}
	}
}

// TestForCacheAndSetEnabled pins the compile cache and the process-wide
// kill switch the differential tests rely on.
func TestForCacheAndSetEnabled(t *testing.T) {
	inst := manualMixedInstance(t)
	if !Enabled() {
		t.Fatal("kernels should default to enabled")
	}
	c1 := For(inst)
	if c1 == nil {
		t.Fatal("For returned nil with kernels enabled")
	}
	if c2 := For(inst); c2 != c1 {
		t.Error("second For did not hit the cache")
	}
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if !prev {
		t.Error("SetEnabled(false) should report the previous enabled state")
	}
	if For(inst) != nil {
		t.Error("For should return nil while kernels are disabled")
	}
	if For(nil) != nil {
		t.Error("For(nil) must be nil")
	}
	SetEnabled(true)
	if For(inst) != c1 {
		t.Error("re-enabling lost the cached kernel")
	}
}

package main

import (
	"fmt"
	"time"

	lll "repro"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/prng"
)

// Sizes of the dist-paper pair. Each fixer keeps Θ(n) state per node, so
// a pair costs Θ(n²); these sizes keep one pair near 0.2 s on two cores,
// which lets a 20 s run time 100 pairs.
const (
	paperCycleN = 2000 // Corollary 1.2: sinkless orientation of a cycle
	paperHyperN = 75   // Corollary 1.4: hyper-sinkless, degree-2 rank-3 hypergraph
)

// paper is the dist-paper workload: one operation is a pair of the paper's
// deterministic distributed fixers, both seeded from the operation's seed,
// each built, solved through the public façade and verified.
type paper struct{ seed uint64 }

func newPaper(seed uint64, _ bool) (target, error) {
	p := &paper{seed: seed}
	if o := p.op(setupBase, nil); o.cause != causeOK {
		return nil, fmt.Errorf("warm-up pair: %v", o.cause)
	}
	return p, nil
}

func (p *paper) client() func(int, *tracer) outcome { return p.op }
func (p *paper) replay(*tracer, int) error          { return nil }
func (p *paper) close()                             {}

func (p *paper) op(i int, tr *tracer) outcome {
	seed := opSeed(p.seed, i)
	start := time.Now()
	root := tr.id()
	r2, c2, cause := corollary(tr, i, root, "core.dist2", seed, func() (*lll.Instance, error) {
		sk, err := lll.NewSinklessWithMargin(lll.NewCycle(paperCycleN), 0.9)
		if err != nil {
			return nil, err
		}
		return sk.Instance, nil
	})
	o := outcome{rounds: r2, calls: c2, cause: cause}
	if cause == causeOK {
		r3, c3, cause := corollary(tr, i, root, "core.dist3", seed, func() (*lll.Instance, error) {
			h, err := lll.NewRandomRegularRank3(paperHyperN, 2, lll.NewRand(seed))
			if err != nil {
				return nil, err
			}
			hs, err := lll.NewHyperSinkless(h, 0.4)
			if err != nil {
				return nil, err
			}
			return hs.Instance, nil
		})
		o.rounds += r3
		o.calls += c3
		o.cause = cause
	}
	end := time.Now()
	o.lat = end.Sub(start)
	tr.record(i, root, 0, "op", start, end, nil)
	return o
}

// corollary builds one instance, solves it with lll.SolveDistributed and
// checks the assignment, returning the LOCAL rounds and the time spent in
// the build and solve calls. Traced, it records a span per call, compiles
// the kernel in its own span first (the solver then finds it compiled), and
// records each interval between LOCAL round callbacks as a local.round span.
func corollary(tr *tracer, op int, root int64, name string, seed uint64, build func() (*lll.Instance, error)) (int, time.Duration, cause) {
	t0, a0 := time.Now(), tr.allocs()
	inst, err := build()
	t1 := time.Now()
	tr.record(op, 0, root, "build", t0, t1, tr.allocAttr(a0))
	calls := t1.Sub(t0)
	if err != nil {
		return 0, calls, causeSolveError
	}
	lopts := lll.LocalOptions{IDSeed: seed}
	sid := tr.id()
	if tr != nil {
		k0 := time.Now()
		kernel.For(inst)
		k1 := time.Now()
		tr.record(op, 0, root, "kernel.compile", k0, k1, nil)
		calls += k1.Sub(k0)
		var last time.Time
		lopts.OnRound = func(rs engine.RoundStats) {
			now := time.Now()
			if !last.IsZero() {
				tr.record(op, 0, sid, "local.round", last, now,
					map[string]float64{"messages": float64(rs.Messages), "steps": float64(rs.Steps)})
			}
			last = now
		}
	}
	s0, a0 := time.Now(), tr.allocs()
	res, err := lll.SolveDistributed(inst, lll.Options{}, lopts)
	s1 := time.Now()
	calls += s1.Sub(s0)
	if err != nil {
		tr.record(op, sid, root, name, s0, s1, nil)
		return 0, calls, causeSolveError
	}
	if tr != nil {
		attrs := tr.allocAttr(a0)
		attrs["coloring_rounds"] = float64(res.ColoringRounds)
		attrs["fixing_rounds"] = float64(res.FixingRounds)
		tr.record(op, sid, root, name, s0, s1, attrs)
	}
	v0 := time.Now()
	ok := res.Assignment != nil && res.Assignment.Complete()
	if ok {
		violated, err := inst.CountViolated(res.Assignment)
		ok = err == nil && violated == 0
	}
	tr.record(op, 0, root, "model.verify", v0, time.Now(), nil)
	if !ok {
		return res.TotalRounds, calls, causeUnsatisfied
	}
	return res.TotalRounds, calls, causeOK
}

// opSeed is the seed of operation i. Mix64 is a bijection, so distinct
// operations of one run get distinct seeds.
func opSeed(seed uint64, i int) uint64 {
	return prng.Mix64(prng.Mix64(seed) ^ uint64(i))
}

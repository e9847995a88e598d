package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mt"
	"repro/internal/prng"
	"repro/internal/service"
)

// replay re-runs the distinct specs of traced job i through the public
// layer entry points, in the order a cold job calls them, and checks that
// each gives the result the service served for it.
func (s *server) replay(tr *tracer, i int) error {
	s.mu.Lock()
	sum := s.served[i]
	s.mu.Unlock()
	if s.kind == kindCold {
		got, err := replaySpec(tr, i, jobSpec(s.seed, i))
		if err == nil && sum != nil {
			err = compare(got, solveCounts{sum.Rounds, sum.Resamplings, sum.VarsFixed})
		}
		return err
	}
	for j := range batchDistinct {
		got, err := replaySpec(tr, i, batchSpec(s.seed, i, j))
		if err == nil && sum != nil {
			is := sum.Instances[j]
			err = compare(got, solveCounts{is.Rounds, is.Resamplings, is.VarsFixed})
		}
		if err != nil {
			return fmt.Errorf("member %d: %w", j, err)
		}
	}
	return nil
}

// solveCounts are the deterministic counters of one solve.
type solveCounts struct{ rounds, resamplings, varsFixed int }

func compare(replayed, served solveCounts) error {
	if replayed != served {
		return fmt.Errorf("replay counted %+v, the service served %+v", replayed, served)
	}
	return nil
}

// replaySpec runs build → batch.Hash → kernel.For → solve → verify on one
// spec, one span per call under a "replay" root span.
func replaySpec(tr *tracer, op int, js service.JobSpec) (solveCounts, error) {
	var c solveCounts
	root := tr.id()
	t0 := time.Now()
	defer func() { tr.record(op, root, 0, "replay", t0, time.Now(), nil) }()

	b0, a0 := time.Now(), tr.allocs()
	inst, err := buildSpec(js)
	tr.record(op, 0, root, "build", b0, time.Now(), tr.allocAttr(a0))
	if err != nil {
		return c, fmt.Errorf("build: %w", err)
	}
	h0 := time.Now()
	batch.Hash(inst)
	k0 := time.Now()
	tr.record(op, 0, root, "batch.hash", h0, k0, nil)
	kernel.For(inst)
	s0 := time.Now()
	tr.record(op, 0, root, "kernel.compile", k0, s0, nil)

	var a *model.Assignment
	switch js.Algorithm {
	case service.AlgMTPar:
		res, err := mt.ParallelCtx(context.Background(), inst, prng.New(js.Seed), js.MaxRounds, mt.Observer{})
		if err != nil {
			return c, fmt.Errorf("mt.ParallelCtx: %w", err)
		}
		a, c.rounds, c.resamplings = res.Assignment, res.Rounds, res.Resamplings
		tr.record(op, 0, root, "mt.solve", s0, time.Now(),
			map[string]float64{"rounds": float64(res.Rounds), "resamplings": float64(res.Resamplings)})
	case service.AlgSeq:
		res, err := core.FixSequentialCtx(context.Background(), inst, nil, core.Options{})
		if err != nil {
			return c, fmt.Errorf("core.FixSequentialCtx: %w", err)
		}
		a, c.varsFixed = res.Assignment, res.Stats.VarsFixed
		tr.record(op, 0, root, "core.seq", s0, time.Now(), nil)
	default:
		return c, fmt.Errorf("no replay for algorithm %q", js.Algorithm)
	}

	v0 := time.Now()
	violated, err := inst.CountViolated(a)
	tr.record(op, 0, root, "model.verify", v0, time.Now(), nil)
	if err != nil || !a.Complete() || violated != 0 {
		return c, fmt.Errorf("replayed assignment violates %d events (err %v)", violated, err)
	}
	return c, nil
}

// buildSpec builds a spec's instance from the generators, as the service
// does for the sinkless and hyper families.
func buildSpec(js service.JobSpec) (*model.Instance, error) {
	r := prng.New(js.Seed)
	switch js.Family {
	case service.FamilySinkless:
		var g *graph.Graph
		if js.Degree == 2 {
			g = graph.Cycle(js.N)
		} else {
			var err error
			if g, err = graph.RandomRegular(js.N, js.Degree, r); err != nil {
				return nil, err
			}
		}
		sk, err := apps.NewSinklessWithMargin(g, js.Margin)
		if err != nil {
			return nil, err
		}
		return sk.Instance, nil
	case service.FamilyHyper:
		h, err := hypergraph.RandomRegularRank3(js.N, js.Degree, r)
		if err != nil {
			return nil, err
		}
		hs, err := apps.NewHyperSinkless(h, js.Slack)
		if err != nil {
			return nil, err
		}
		return hs.Instance, nil
	}
	return nil, fmt.Errorf("no generator for family %q", js.Family)
}

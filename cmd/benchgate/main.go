// Command benchgate is the CI benchmark-regression gate: it diffs the
// freshly generated `make bench-json` document against the committed
// BENCH_*.json trajectory and fails (exit 1) on regression. Two rule sets
// apply, both defined in internal/benchset so the gate, the benchmarks and
// the JSON tooling agree on workloads and names: tolerance bands against
// the baseline (generous on rounds/sec, which moves with the CI machine;
// tight on allocs/round, which is a deterministic property of the code),
// and machine-independent intra-run ratios (the n = 100k kernel scan must
// beat the generic scan by the pinned factor on the same machine). A third
// set of absolute ceilings needs no baseline at all: the disabled
// observability path must stay at exactly zero allocs/op on any machine.
//
// Usage:
//
//	benchgate -baseline BENCH_pr6.json -current BENCH_pr8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/benchset"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run() error {
	baselinePath := flag.String("baseline", "", "committed baseline BENCH_*.json")
	currentPath := flag.String("current", "", "freshly generated BENCH_*.json")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		return fmt.Errorf("both -baseline and -current are required")
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		return err
	}
	current, err := load(*currentPath)
	if err != nil {
		return err
	}
	problems := benchset.Compare(baseline, current,
		benchset.DefaultBaselineRules(), benchset.DefaultRatioRules(), benchset.DefaultAbsoluteRules())
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", p)
		}
		return fmt.Errorf("%d regression(s) against %s", len(problems), *baselinePath)
	}
	fmt.Printf("benchgate: %s passes against %s (%d benchmarks checked)\n",
		*currentPath, *baselinePath, len(current.Benchmarks))
	return nil
}

func load(path string) (*benchset.Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchset.Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// Command ipbench regenerates every table and figure of the paper's
// evaluation over the synthetic corpus (see DESIGN.md for the experiment
// index E1–E12).
//
// Usage:
//
//	ipbench [-seed N] [-quick] [-json] [-corpus-dir DIR]
//	        [-table1] [-timing] [-fig2] [-fig3] [-transfer] [-codewords]
//	        [-policies] [-strategies] [-composition] [-algorithms]
//	        [-fleet] [-scratch]
//	ipbench -bench-baseline [-baseline-out FILE] [-quick] [-seed N]
//	ipbench -compare OLD.json [-compare-to NEW.json] [-threshold R]
//	ipbench -recipe-gate [-recipe-speedup F] [-quick] [-seed N]
//
// With no experiment flags, all experiments run. -json emits one JSON
// document with every selected result instead of rendered tables.
// -bench-baseline skips the experiments and instead measures the
// conversion pipeline's hot paths (convert, CRWI build, diff, batch, and
// store serving cold vs cached), writing ns/op, allocs/op, and MB/s as
// JSON for before/after comparison. -compare reads a previously committed
// baseline and a fresh one and exits non-zero when any shared benchmark
// slowed down by more than -threshold (default 0.25, i.e. 25%), or when a
// zero-allocation benchmark started allocating.
// -recipe-gate checks both correctness and speed of the chunked
// recipe-diff fast path on a 16 MiB 5%-churn input: both deltas must
// reconstruct identical bytes, and recipe diffing must beat the full
// differ by at least -recipe-speedup (default 2.0x).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ipbench:", err)
		os.Exit(1)
	}
}

// renderer is what every experiment result knows how to do.
type renderer interface {
	Render(io.Writer) error
}

func run(args []string) error {
	fs := flag.NewFlagSet("ipbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1998, "corpus seed")
	quick := fs.Bool("quick", false, "use the small corpus")
	jsonOut := fs.Bool("json", false, "emit results as one JSON document")
	corpusDir := fs.String("corpus-dir", "", "run on real version pairs from this directory (*.old/*.new or *.v<N> files) instead of the synthetic corpus")
	t1 := fs.Bool("table1", false, "E1: Table 1 compression")
	timing := fs.Bool("timing", false, "E2: diff vs conversion run time")
	fig2 := fs.Bool("fig2", false, "E3: Figure 2 adversarial tree")
	fig3 := fs.Bool("fig3", false, "E4: Figure 3 edge bounds")
	transfer := fs.Bool("transfer", false, "E5: transmission time")
	codewords := fs.Bool("codewords", false, "E6: codeword ablation")
	policies := fs.Bool("policies", false, "E7: policy vs optimal ablation")
	strategies := fs.Bool("strategies", false, "E8: cycle-breaking strategy ablation")
	composition := fs.Bool("composition", false, "E9: composed chain delta vs direct diff")
	algorithms := fs.Bool("algorithms", false, "E10: differencing algorithm ablation")
	fleetFlag := fs.Bool("fleet", false, "E11: fleet rollout comparison")
	scratch := fs.Bool("scratch", false, "E12: bounded-scratch trade-off")
	benchBaseline := fs.Bool("bench-baseline", false, "measure the conversion pipeline and emit a machine-readable baseline instead of running experiments")
	baselineOut := fs.String("baseline-out", "BENCH_convert.json", "output path for -bench-baseline")
	comparePath := fs.String("compare", "", "compare this old baseline JSON against -compare-to and exit non-zero on regression")
	compareTo := fs.String("compare-to", "BENCH_convert.json", "new baseline JSON for -compare")
	threshold := fs.Float64("threshold", 0.25, "allowed ns/op slowdown ratio for -compare (0.25 = 25%)")
	recipeGate := fs.Bool("recipe-gate", false, "measure recipe diff vs the full differ on churned input and exit non-zero unless recipe wins by -recipe-speedup")
	recipeSpeedup := fs.Float64("recipe-speedup", 2.0, "required recipe-vs-full speedup factor for -recipe-gate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *comparePath != "" {
		return runCompare(os.Stdout, *comparePath, *compareTo, *threshold)
	}
	if *recipeGate {
		return runRecipeGate(os.Stdout, *recipeSpeedup, *quick, *seed)
	}
	if *benchBaseline {
		return runBaseline(os.Stdout, *baselineOut, *quick, *seed)
	}
	all := !(*t1 || *timing || *fig2 || *fig3 || *transfer || *codewords ||
		*policies || *strategies || *composition || *algorithms || *fleetFlag || *scratch)

	out := os.Stdout
	var pairs []corpus.Pair
	switch {
	case *corpusDir != "":
		var err error
		pairs, err = corpus.FromFiles(*corpusDir)
		if err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(out, "corpus: %d real version pairs from %s\n\n", len(pairs), *corpusDir)
		}
	case *quick:
		pairs = corpus.SmallCorpus(*seed)
	default:
		pairs = corpus.StandardCorpus(*seed)
	}
	algo := diff.NewLinear()

	results := map[string]renderer{}
	emit := func(name string, res renderer, err error) error {
		if err != nil {
			return err
		}
		results[name] = res
		if *jsonOut {
			return nil
		}
		if err := res.Render(out); err != nil {
			return err
		}
		_, err = fmt.Fprintln(out)
		return err
	}

	if all || *t1 {
		res, err := experiments.RunTable1(pairs, algo)
		if err := emit("table1", res, err); err != nil {
			return err
		}
	}
	if all || *timing {
		res, err := experiments.RunTiming(pairs, algo)
		if err := emit("timing", res, err); err != nil {
			return err
		}
	}
	if all || *fig2 {
		res, err := experiments.RunFig2([]int{2, 4, 6, 8, 10}, 64)
		if err := emit("fig2", res, err); err != nil {
			return err
		}
	}
	if all || *fig3 {
		res, err := experiments.RunFig3([]int{8, 32, 128, 512, 1024})
		if err := emit("fig3", res, err); err != nil {
			return err
		}
	}
	if all || *transfer {
		// The stride must not share a factor with the 4-rate grid cycle,
		// or the sample would see a single change rate.
		transferPairs := pairs
		if len(transferPairs) > 6 {
			stride := len(pairs)/6 | 1
			if stride%4 == 0 {
				stride++
			}
			transferPairs = nil
			for k := 0; k < len(pairs) && len(transferPairs) < 6; k += stride {
				transferPairs = append(transferPairs, pairs[k])
			}
		}
		res, err := experiments.RunTransfer(transferPairs, []int64{28_800, 256_000, 1_000_000})
		if err := emit("transfer", res, err); err != nil {
			return err
		}
	}
	if all || *codewords {
		res, err := experiments.RunCodewords(pairs, algo)
		if err := emit("codewords", res, err); err != nil {
			return err
		}
	}
	if all || *policies {
		res, err := experiments.RunPolicies(200, 12, *seed)
		if err := emit("policies", res, err); err != nil {
			return err
		}
	}
	if all || *strategies {
		res, err := experiments.RunStrategies(pairs, algo, 8, 64)
		if err := emit("strategies", res, err); err != nil {
			return err
		}
	}
	if all || *composition {
		base := corpus.Generate(corpus.PairSpec{
			Profile: corpus.Binary, Size: 64 << 10, ChangeRate: 0.05, Seed: *seed,
		})
		res, err := experiments.RunComposition(base, 6)
		if err := emit("composition", res, err); err != nil {
			return err
		}
	}
	if all || *algorithms {
		res, err := experiments.RunAlgorithms(pairs)
		if err := emit("algorithms", res, err); err != nil {
			return err
		}
	}
	if all || *scratch {
		res, err := experiments.RunScratch(pairs, algo, []float64{0, 0.001, 0.01, 0.05, 0.25, 1.0})
		if err := emit("scratch", res, err); err != nil {
			return err
		}
	}
	if all || *fleetFlag {
		size := 128 << 10
		devices := 40
		if *quick {
			size = 16 << 10
			devices = 10
		}
		res, err := experiments.RunFleet(size, 4, devices, 256_000, *seed)
		if err := emit("fleet", res, err); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}

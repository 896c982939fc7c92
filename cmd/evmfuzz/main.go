// Command evmfuzz sweeps seeded random scenarios through the invariant
// harness: it generates N campus specs from consecutive generator seeds
// (topology, cells, placements, policies, fault plans, optional OTA
// rollouts — all pure functions of the seed), runs each under M run
// seeds on the parallel Runner with the complete checker set, and on
// any violation delta-debugs the generating spec down to a minimal
// still-failing reproduction, written as a JSON repro plus a
// self-contained Go regression test.
//
//	evmfuzz -n 1000 -seeds 3                # 3000-run sweep, exit 1 on any violation
//	evmfuzz -profile lossy -n 2000 -seeds 3 # the same without the loss gates
//	evmfuzz -profile lossy-multihop -n 500  # multi-hop line cells with a cell PER
//	evmfuzz -seed 42 -print                 # show the spec seed 42 generates
//	evmfuzz -repro fuzzout/repro-....json   # replay a recorded failure
//
// Everything is deterministic: the same -seed/-n/-seeds flags reproduce
// byte-identical specs and campus event streams on every machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"evm/fuzz"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of generated specs")
		seeds   = flag.Int("seeds", 3, "run seeds per spec")
		seed    = flag.Uint64("seed", 1, "base generator seed (spec i uses seed+i)")
		profile = flag.String("profile", "default", "generator profile: default, multihop, lossy or lossy-multihop (lossy: default without the loss gates; lossy-multihop: multihop without them)")
		workers = flag.Int("workers", 0, "parallel runner workers (0 = GOMAXPROCS)")
		out     = flag.String("out", "fuzzout", "directory for repro artifacts")
		shrinks = flag.Int("shrink", 3, "max failures to shrink and write artifacts for")
		print   = flag.Bool("print", false, "print the spec generated by -seed and exit")
		repro   = flag.String("repro", "", "replay a repro JSON file and exit")
	)
	flag.Parse()

	if *repro != "" {
		os.Exit(replay(*repro))
	}

	prof := fuzz.DefaultProfile()
	switch *profile {
	case "default":
	case "multihop":
		prof = fuzz.MultihopProfile()
	case "lossy":
		prof.LossGates = false
	case "lossy-multihop":
		prof = fuzz.MultihopProfile()
		prof.LossGates = false
	default:
		fmt.Fprintf(os.Stderr, "evmfuzz: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	if *print {
		js, err := fuzz.GenerateWith(*seed, prof).MarshalIndent()
		if err != nil {
			fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(js))
		return
	}

	corpus := fuzz.GenerateCorpus(*seed, *n, prof)
	runSeeds := make([]uint64, *seeds)
	for i := range runSeeds {
		runSeeds[i] = uint64(i + 1)
	}
	fmt.Printf("evmfuzz: sweeping %d specs x %d seeds (%d runs, base seed %d, profile %s)\n",
		len(corpus), len(runSeeds), len(corpus)*len(runSeeds), *seed, *profile)
	result := fuzz.Sweep(corpus, runSeeds, *workers)
	if len(result.Failures) == 0 {
		fmt.Printf("evmfuzz: %d runs, zero invariant violations\n", result.Runs)
		return
	}

	fmt.Printf("evmfuzz: %d of %d runs FAILED\n", len(result.Failures), result.Runs)
	for _, f := range result.Failures {
		fmt.Printf("  %s\n", f.Label())
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", err)
		os.Exit(2)
	}
	shrunk := 0
	for _, f := range result.Failures {
		if shrunk >= *shrinks {
			fmt.Printf("evmfuzz: shrink budget exhausted, %d failures left unshrunk\n",
				len(result.Failures)-shrunk)
			break
		}
		if f.Err != nil {
			// Build/run errors have no violations to shrink against; the
			// spec itself is the artifact.
			js, _ := f.Spec.MarshalIndent()
			path := filepath.Join(*out, f.Spec.Name+"-builderr.json")
			if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", err)
			}
			fmt.Printf("evmfuzz: wrote %s (%v)\n", path, f.Err)
			shrunk++
			continue
		}
		fmt.Printf("evmfuzz: shrinking %s/seed=%d ...\n", f.Spec.Name, f.Seed)
		sr := fuzz.Shrink(f.Spec, f.Seed, f.Violations)
		fmt.Printf("evmfuzz: minimized to %d cell(s), %d fault step(s), %v horizon (%d attempts, %d accepted)\n",
			len(sr.Spec.Cells), len(sr.Spec.Faults), sr.Spec.Horizon(), sr.Attempts, sr.Accepted)
		rep := fuzz.NewRepro(sr.Spec, sr.Seed, sr.Violations)
		reproPath := filepath.Join(*out, sr.Spec.Name+".json")
		if err := fuzz.WriteRepro(reproPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", err)
			os.Exit(2)
		}
		testSrc, err := fuzz.RegressionTest(rep, "")
		testPath := filepath.Join(*out, sr.Spec.Name+"_test.go.txt")
		if err == nil {
			err = os.WriteFile(testPath, testSrc, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("evmfuzz: wrote %s and %s\n", reproPath, testPath)
		// A causal trace of the violating run rides along with the repro,
		// so the failure can be read on a timeline before it is replayed.
		if traceJS, terr := fuzz.TraceJSON(sr.Spec, sr.Seed); terr == nil && len(traceJS) > 0 {
			tracePath := filepath.Join(*out, sr.Spec.Name+".trace.json")
			if werr := os.WriteFile(tracePath, traceJS, 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", werr)
			} else {
				fmt.Printf("evmfuzz: wrote %s\n", tracePath)
			}
		}
		shrunk++
	}
	os.Exit(1)
}

// replay loads a repro file and re-runs it; exit 0 means the recorded
// violation still reproduces.
func replay(path string) int {
	rep, err := fuzz.LoadRepro(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", err)
		return 2
	}
	viols, err := rep.Replay()
	if err != nil {
		fmt.Fprintf(os.Stderr, "evmfuzz: repro failed to run: %v\n", err)
		return 2
	}
	fmt.Printf("evmfuzz: repro %s seed %d: %d violation(s)\n", rep.Spec.Name, rep.Seed, len(viols))
	for _, v := range viols {
		fmt.Printf("  %s\n", v)
	}
	if err := rep.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "evmfuzz: %v\n", err)
		return 1
	}
	fmt.Printf("evmfuzz: recorded checkers %v reproduced\n", rep.Checkers)
	return 0
}

// Command benchlab runs the "small benchmarking study" the shared-memory
// module closes with, generalized to every modeled platform: it times an
// exemplar at a sweep of worker counts, prints the speedup/efficiency
// table, and (with -model) prints the platform's analytically predicted
// speedup curve instead of measuring.
//
// Usage:
//
//	benchlab -platform pi -exemplar integration -sweep 1,2,4
//	benchlab -platform stolaf -exemplar forestfire -sweep 1,2,4,8,16
//	benchlab -platform colab -exemplar drugdesign -sweep 1,2,4 -model
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/exemplars/drugdesign"
	"repro/internal/exemplars/forestfire"
	"repro/internal/exemplars/integration"
	"repro/internal/mpi"
	"repro/internal/shm"
	"repro/internal/stats"
)

func main() {
	var (
		platform   = flag.String("platform", "pi", "modeled platform (pi, colab, chameleon, stolaf)")
		exemplar   = flag.String("exemplar", "integration", "integration, drugdesign, or forestfire")
		sweep      = flag.String("sweep", "1,2,4", "comma-separated worker counts")
		model      = flag.Bool("model", false, "print the platform's predicted speedup curve instead of measuring")
		repeat     = flag.Int("repeat", 1, "measure each configuration this many times; >1 adds a 95% confidence interval")
		mpibench   = flag.Bool("mpibench", false, "run the MPI transport microbenchmarks and write BENCH_mpi.json")
		mpiout     = flag.String("mpibench-out", "BENCH_mpi.json", "output path for -mpibench")
		mpiiters   = flag.Int("mpibench-iters", 20000, "ping-pong iterations for -mpibench")
		shmbench   = flag.Bool("shmbench", false, "run the shm runtime microbenchmarks and write BENCH_shm.json")
		shmout     = flag.String("shmbench-out", "BENCH_shm.json", "output path for -shmbench")
		shmiters   = flag.Int("shmbench-iters", 20000, "region-launch iterations for -shmbench")
		recpin     = flag.Bool("recoverpin", false, "check that inert WithRecovery costs <= 2% on the ping-pong path (exit 1 if not)")
		sesspin    = flag.Bool("sessionpin", false, "check that arming resilient sessions (HubSuspicion) costs <= 5% over a plain RunTCP world on a 1 MiB TCP ping-pong (exit 1 if not)")
		vecbench   = flag.Bool("vecbench", false, "run the large-payload vector-collective and TCP-framing benchmarks, merge into BENCH_mpi.json, and enforce the speedup pins")
		vecquick   = flag.Bool("vecbench-quick", false, "abbreviated -vecbench smoke: fewest sizes, one round, no pin enforcement")
		shmtbench  = flag.Bool("shmtbench", false, "run the shared-memory transport benchmarks (shm vs TCP, eager/rendezvous crossover), merge into BENCH_mpi.json, and enforce the speedup pins")
		shmtquick  = flag.Bool("shmtbench-quick", false, "abbreviated -shmtbench smoke: fewest sizes, one round, no pin enforcement")
		hierbench  = flag.Bool("hierbench", false, "run the topology-aware collective benchmarks (flat vs two-level, forestfire overlap) on a modeled 2-node platform, merge into BENCH_mpi.json, and enforce the speedup pins")
		hierquick  = flag.Bool("hierbench-quick", false, "abbreviated -hierbench smoke: fewest sizes, one round, no pin enforcement")
		schedbench = flag.Bool("schedbench", false, "load-test the gang scheduler over its HTTP API (steady + chaos phases), merge into BENCH_mpi.json, and enforce the zero-lost-jobs pin")
		schedquick = flag.Bool("schedbench-quick", false, "abbreviated -schedbench smoke: fewer jobs, same zero-lost-jobs pin")
		rmabench   = flag.Bool("rmabench", false, "run the one-sided RMA and coalesced-alltoallv benchmarks (Put vs Send/Recv, AlltoallvSlice vs naive loops, PageRank scaling), merge into BENCH_mpi.json, and enforce the speedup pins")
		rmaquick   = flag.Bool("rmabench-quick", false, "abbreviated -rmabench smoke: fewest sizes, one round, no pin enforcement")
		benchdiff  = flag.String("benchdiff", "", "compare the BENCH_mpi.json at this path against the committed baseline on stdin (use scripts/bench_diff.sh); prints per-pin drift and exits 1 beyond -benchdiff-tol")
		difftol    = flag.Float64("benchdiff-tol", 25, "allowed pin drift in percent for -benchdiff")
	)
	flag.Parse()

	if *recpin {
		if err := runRecoverPin(*mpiiters); err != nil {
			fail(err)
		}
		return
	}
	if *sesspin {
		if err := runSessionPin(*mpiiters); err != nil {
			fail(err)
		}
		return
	}
	if *vecbench || *vecquick {
		if err := runVecBench(*mpiout, *vecquick); err != nil {
			fail(err)
		}
		return
	}
	if *shmtbench || *shmtquick {
		if err := runShmtBench(*mpiout, *shmtquick); err != nil {
			fail(err)
		}
		return
	}
	if *hierbench || *hierquick {
		if err := runHierBench(*mpiout, *hierquick); err != nil {
			fail(err)
		}
		return
	}
	if *schedbench || *schedquick {
		if err := runSchedBench(*mpiout, *schedquick); err != nil {
			fail(err)
		}
		return
	}
	if *rmabench || *rmaquick {
		if err := runRmaBench(*mpiout, *rmaquick); err != nil {
			fail(err)
		}
		return
	}
	if *benchdiff != "" {
		if err := runBenchDiff(*benchdiff, *difftol); err != nil {
			fail(err)
		}
		return
	}
	if *mpibench {
		if err := runMPIBench(*mpiout, *mpiiters); err != nil {
			fail(err)
		}
		return
	}
	if *shmbench {
		if err := runSHMBench(*shmout, *shmiters); err != nil {
			fail(err)
		}
		return
	}

	plat, err := cluster.Lookup(*platform)
	if err != nil {
		fail(err)
	}
	counts, err := parseSweep(*sweep)
	if err != nil {
		fail(err)
	}

	if *model {
		fmt.Printf("Predicted speedup on %s (equal work split across ranks):\n", plat)
		fmt.Printf("%8s %9s\n", "workers", "speedup")
		for _, np := range counts {
			fmt.Printf("%8d %8.2fx\n", np, plat.PredictedSpeedup(np, time.Second))
		}
		return
	}

	if *repeat < 1 {
		fail(fmt.Errorf("repeat must be >= 1, got %d", *repeat))
	}
	fmt.Printf("Benchmarking %s on %s (%d repetition(s) per point)\n\n", *exemplar, plat, *repeat)
	times := make([]time.Duration, len(counts))
	cis := make([]string, len(counts))
	for i, np := range counts {
		samples := make([]float64, *repeat)
		for r := 0; r < *repeat; r++ {
			start := time.Now()
			if err := runExemplar(plat, *exemplar, np); err != nil {
				fail(err)
			}
			samples[r] = float64(time.Since(start))
		}
		mean, err := stats.Mean(samples)
		if err != nil {
			fail(err)
		}
		times[i] = time.Duration(mean)
		if *repeat > 1 {
			lo, hi, err := stats.MeanCI(samples, 0.95)
			if err != nil {
				fail(err)
			}
			cis[i] = fmt.Sprintf(" (95%% CI %v .. %v)",
				time.Duration(lo).Round(time.Microsecond), time.Duration(hi).Round(time.Microsecond))
		}
	}
	points, err := stats.ScalingStudy(counts, times)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.FormatScaling(points))
	if *repeat > 1 {
		fmt.Println("\nper-point confidence intervals:")
		for i, np := range counts {
			fmt.Printf("  np=%d: mean %v%s\n", np, times[i].Round(time.Microsecond), cis[i])
		}
	}
}

func parseSweep(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return counts, nil
}

// runExemplar executes one timed configuration. The shared-memory platform
// (pi) uses the shm runtime; the others launch MPI jobs under the
// platform's core gate.
func runExemplar(plat cluster.Platform, exemplar string, np int) error {
	onPi := plat.Name == cluster.RaspberryPi().Name
	switch exemplar {
	case "integration":
		const n = 20_000_000
		if onPi {
			_, err := integration.TrapezoidShared(integration.QuarterCircle, 0, 1, n, np)
			return err
		}
		return plat.Launch(np, func(c *mpi.Comm) error {
			_, err := integration.TrapezoidMPI(c, integration.QuarterCircle, 0, 1, n)
			return err
		})
	case "drugdesign":
		params := drugdesign.DefaultParams()
		params.NumLigands = 4000
		params.MaxLigandLen = 10
		if onPi {
			_, err := drugdesign.Shared(params, np, shm.Dynamic(1))
			return err
		}
		return plat.Launch(np, func(c *mpi.Comm) error {
			_, err := drugdesign.MPIMasterWorker(c, params)
			return err
		})
	case "forestfire":
		params := forestfire.DefaultParams()
		params.Rows, params.Cols = 61, 61
		params.Trials = 60
		if onPi {
			_, err := forestfire.SweepShared(params, np)
			return err
		}
		return plat.Launch(np, func(c *mpi.Comm) error {
			_, err := forestfire.SweepMPI(c, params)
			return err
		})
	default:
		return fmt.Errorf("unknown exemplar %q", exemplar)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchlab:", err)
	os.Exit(1)
}

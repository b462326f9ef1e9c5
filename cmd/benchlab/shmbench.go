package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exemplars/drugdesign"
	"repro/internal/exemplars/forestfire"
	"repro/internal/exemplars/integration"
	"repro/internal/shm"
	"repro/internal/stats"
)

// The -shmbench mode times the shared-memory runtime the way a regression
// harness wants it: fixed-shape microbenchmarks plus exemplar speedup
// curves, one JSON file, before/after comparable across commits. The two
// comparisons mirror the runtime's two mechanisms that have a simpler
// alternative: pooled region dispatch vs spawn-per-region
// (region_launch_ns), and the typed padded-slot reduction vs one atomic
// CAS-retry add per iteration (reduce_ns_per_iter). chunk_handout_ns times
// the one Dynamic/Guided engine, the shared atomic counter, on its own. The host facts the numbers depend on (nproc,
// GOMAXPROCS, Go version, CPU model) are recorded beside them.

// shmRegionPoint is one row of the fixed-width region-launch sweep.
type shmRegionPoint struct {
	Threads int     `json:"threads"`
	Pooled  float64 `json:"pooled"`
	Spawn   float64 `json:"spawn"`
	Speedup float64 `json:"speedup"`
}

// shmChunkPoint is one team-width row of the chunk-handout probe:
// nanoseconds for a 4096-iteration empty Dynamic(1) loop, whole and per
// iteration.
type shmChunkPoint struct {
	Threads   int     `json:"threads"`
	Ns        float64 `json:"ns"`
	NsPerIter float64 `json:"ns_per_iter"`
	LoopIters int     `json:"loop_iters"`
}

// shmExemplarCurve is one exemplar's measured speedup/efficiency curve.
type shmExemplarCurve struct {
	Exemplar string `json:"exemplar"`
	Points   []struct {
		Threads    int     `json:"threads"`
		Ns         float64 `json:"ns"`
		Speedup    float64 `json:"speedup"`
		Efficiency float64 `json:"efficiency"`
	} `json:"points"`
}

// shmBenchReport is the schema of BENCH_shm.json.
type shmBenchReport struct {
	// RegionLaunchNs: cost of one empty parallel region. The headline
	// pooled/spawn/speedup triple is measured at the default team width
	// (TeamSize(0) = GOMAXPROCS) — the width every numThreads<=0 call site
	// actually launches — and Sweep reports fixed widths for transparency.
	RegionLaunchNs struct {
		DefaultWidth int              `json:"default_width"`
		Pooled       float64          `json:"pooled"`
		Spawn        float64          `json:"spawn"`
		Speedup      float64          `json:"speedup"`
		Sweep        []shmRegionPoint `json:"sweep"`
	} `json:"region_launch_ns"`
	ChunkHandoutNs []shmChunkPoint `json:"chunk_handout_ns"`
	// ReduceNsPerIter: a 32768-iteration float64 sum at 4 threads, typed
	// padded-slot fast path vs one AtomicFloat64 CAS-retry Add per
	// iteration. Speedup = Atomic/Typed; the acceptance floor is 3.
	ReduceNsPerIter struct {
		Typed   float64 `json:"typed"`
		Atomic  float64 `json:"atomic"`
		Speedup float64 `json:"speedup"`
	} `json:"reduce_ns_per_iter"`
	ExemplarSpeedup []shmExemplarCurve `json:"exemplar_speedup"`
	NProc           int                `json:"nproc"`
	GOMAXPROCS      int                `json:"gomaxprocs"`
	GoVersion       string             `json:"go_version"`
	CPUModel        string             `json:"cpu_model"`
	Timestamp       string             `json:"timestamp"`
}

// cpuModel reports the first "model name" line of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeRegions reports nanoseconds per call of launch, after a warmup.
func timeRegions(iters int, launch func()) float64 {
	for i := 0; i < iters/10+1; i++ {
		launch()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		launch()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// timeBest runs f reps times and reports the fastest run, in nanoseconds:
// the low-noise estimator for the coarse exemplar timings.
func timeBest(reps int, f func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		ns := float64(time.Since(start).Nanoseconds())
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// runSHMBench executes the microbenchmarks and writes the report to path.
func runSHMBench(path string, iters int) error {
	if iters < 1 {
		return fmt.Errorf("shmbench-iters must be >= 1, got %d", iters)
	}
	var r shmBenchReport
	r.NProc = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.GoVersion = runtime.Version()
	r.CPUModel = cpuModel()
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)

	empty := func(*shm.ThreadContext) {}

	// Region launch: headline at the default width, then the fixed sweep.
	nt := shm.TeamSize(0)
	r.RegionLaunchNs.DefaultWidth = nt
	r.RegionLaunchNs.Pooled = timeRegions(iters, func() { shm.Parallel(nt, empty) })
	r.RegionLaunchNs.Spawn = timeRegions(iters, func() { shm.ParallelSpawn(nt, empty) })
	if r.RegionLaunchNs.Pooled > 0 {
		r.RegionLaunchNs.Speedup = r.RegionLaunchNs.Spawn / r.RegionLaunchNs.Pooled
	}
	for _, w := range []int{1, 2, 4, 8} {
		p := shmRegionPoint{Threads: w}
		p.Pooled = timeRegions(iters, func() { shm.Parallel(w, empty) })
		p.Spawn = timeRegions(iters, func() { shm.ParallelSpawn(w, empty) })
		if p.Pooled > 0 {
			p.Speedup = p.Spawn / p.Pooled
		}
		r.RegionLaunchNs.Sweep = append(r.RegionLaunchNs.Sweep, p)
	}

	// Chunk handout: empty Dynamic(1) loop at 2/8/16 threads.
	const loopN = 4096
	chunkIters := iters / 50
	if chunkIters < 50 {
		chunkIters = 50
	}
	for _, threads := range []int{2, 8, 16} {
		p := shmChunkPoint{Threads: threads, LoopIters: loopN}
		p.Ns = timeRegions(chunkIters, func() {
			shm.Parallel(threads, func(tc *shm.ThreadContext) {
				tc.For(loopN, shm.Dynamic(1), func(int) {})
			})
		})
		p.NsPerIter = p.Ns / loopN
		r.ChunkHandoutNs = append(r.ChunkHandoutNs, p)
	}

	// Reduction: typed fast path vs atomic CAS-retry adds.
	const reduceN = 1 << 15
	reduceIters := iters / 100
	if reduceIters < 30 {
		reduceIters = 30
	}
	typed := timeRegions(reduceIters, func() {
		shm.ParallelForReduceFloat64(4, reduceN, shm.Static(), shm.OpSum, func(i int) float64 {
			return float64(i)
		})
	})
	atomic := timeRegions(reduceIters, func() {
		var acc shm.AtomicFloat64
		shm.ParallelFor(4, reduceN, shm.Static(), func(i int) {
			acc.Add(float64(i))
		})
	})
	r.ReduceNsPerIter.Typed = typed / reduceN
	r.ReduceNsPerIter.Atomic = atomic / reduceN
	if typed > 0 {
		r.ReduceNsPerIter.Speedup = atomic / typed
	}

	// Exemplar speedup curves at 1, 2, 4 threads, via the same scaling-study
	// arithmetic the benchmarking activity teaches.
	threads := []int{1, 2, 4}
	exemplars := []struct {
		name string
		run  func(nt int)
	}{
		{"integration", func(nt int) {
			if _, err := integration.TrapezoidShared(integration.QuarterCircle, 0, 1, 2_000_000, nt); err != nil {
				panic(err)
			}
		}},
		{"drugdesign", func(nt int) {
			p := drugdesign.DefaultParams()
			p.NumLigands = 1200
			p.MaxLigandLen = 10
			if _, err := drugdesign.Shared(p, nt, shm.Dynamic(1)); err != nil {
				panic(err)
			}
		}},
		{"forestfire", func(nt int) {
			p := forestfire.DefaultParams()
			p.Rows, p.Cols = 41, 41
			p.Trials = 24
			if _, err := forestfire.SweepShared(p, nt); err != nil {
				panic(err)
			}
		}},
	}
	for _, ex := range exemplars {
		times := make([]time.Duration, len(threads))
		for i, nt := range threads {
			ex.run(nt) // warmup
			times[i] = time.Duration(timeBest(3, func() { ex.run(nt) }))
		}
		points, err := stats.ScalingStudy(threads, times)
		if err != nil {
			return err
		}
		curve := shmExemplarCurve{Exemplar: ex.name}
		for _, pt := range points {
			curve.Points = append(curve.Points, struct {
				Threads    int     `json:"threads"`
				Ns         float64 `json:"ns"`
				Speedup    float64 `json:"speedup"`
				Efficiency float64 `json:"efficiency"`
			}{pt.Workers, float64(pt.Elapsed.Nanoseconds()), pt.Speedup, pt.Efficiency})
		}
		r.ExemplarSpeedup = append(r.ExemplarSpeedup, curve)
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("Shared-memory runtime microbenchmarks (nproc=%d, GOMAXPROCS=%d, %s, %s; %d iterations)\n\n",
		r.NProc, r.GOMAXPROCS, r.GoVersion, r.CPUModel, iters)
	fmt.Printf("  region launch (width %d):  pooled %8.1f ns   spawn %8.1f ns   (%.1fx)\n",
		r.RegionLaunchNs.DefaultWidth, r.RegionLaunchNs.Pooled, r.RegionLaunchNs.Spawn, r.RegionLaunchNs.Speedup)
	for _, p := range r.RegionLaunchNs.Sweep {
		fmt.Printf("    width %2d:               pooled %8.1f ns   spawn %8.1f ns   (%.1fx)\n",
			p.Threads, p.Pooled, p.Spawn, p.Speedup)
	}
	fmt.Printf("  chunk handout (%d-iter Dynamic(1) loop):\n", loopN)
	for _, p := range r.ChunkHandoutNs {
		fmt.Printf("    %2d threads:  %9.0f ns   (%.2f ns/iter)\n",
			p.Threads, p.Ns, p.NsPerIter)
	}
	fmt.Printf("  reduce ns/iter:            typed %7.2f   atomic %7.2f   (%.1fx)\n",
		r.ReduceNsPerIter.Typed, r.ReduceNsPerIter.Atomic, r.ReduceNsPerIter.Speedup)
	for _, c := range r.ExemplarSpeedup {
		fmt.Printf("  %s:\n", c.Exemplar)
		for _, pt := range c.Points {
			fmt.Printf("    %d threads: %12.0f ns   speedup %5.2fx   efficiency %5.1f%%\n",
				pt.Threads, pt.Ns, pt.Speedup, 100*pt.Efficiency)
		}
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

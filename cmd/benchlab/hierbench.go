package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/exemplars/forestfire"
	"repro/internal/mpi"
)

// The -hierbench mode measures what the topology-aware machinery buys on a
// modeled multi-node platform — a student-built 2-node Beowulf cluster of
// 4-core Pis (PiCluster(2)): 200us inter-node latency and a contended Fast
// Ethernet link (~12.5 MB/s) per node pair, the regime where the paper's
// communication-to-computation lessons actually bite:
//
//   - Vector allreduce, flat vs two-level, across payload sizes. The flat
//     schedule's cross-node rank pairs all contend for the same modeled
//     link (at 1 MiB, eight half-payload crossings serialize on Fast
//     Ethernet); the hierarchical schedule sends one leader exchange per
//     node pair. The acceptance pin: two-level >= 1.5x flat at 1 MiB.
//   - Scalar collective latency (Bcast, Allreduce, Barrier), flat vs
//     two-level: the hierarchy shortens the inter-node critical path.
//   - AlltoallvInto with 1 KiB and 64 KiB per rank pair, flat vs
//     two-level: the leaders aggregate each node's cross-node blocks into
//     one exchange per node pair instead of 16 contending rank-pair sends.
//     Recorded, not pinned.
//   - The forestfire domain decomposition, blocking vs the
//     communication/computation-overlap variant built on the nonblocking
//     collectives. The pin: overlap >= 1.2x on the same platform shape.
//
// Results merge into BENCH_mpi.json under "hier" without disturbing the
// other sections.

// hierPinElems is the 1 MiB []float64 payload the allreduce pin quotes.
const hierPinElems = 131072

// hierPoint is one payload size in the flat-vs-two-level allreduce series.
type hierPoint struct {
	Elems   int     `json:"elems"`
	Bytes   int     `json:"bytes"`
	FlatNs  float64 `json:"flat_ns"`
	HierNs  float64 `json:"hier_ns"`
	Speedup float64 `json:"speedup"`
}

// hierScalarPoint is one scalar collective's flat-vs-two-level latency.
type hierScalarPoint struct {
	Op      string  `json:"op"`
	FlatNs  float64 `json:"flat_ns"`
	HierNs  float64 `json:"hier_ns"`
	Speedup float64 `json:"speedup"`
}

// hierBenchReport is the "hier" section of BENCH_mpi.json.
type hierBenchReport struct {
	Platform string `json:"platform"`
	NP       int    `json:"np"`
	// Allreduce: AllreduceSlice over []float64, flat vs two-level.
	Allreduce []hierPoint `json:"allreduce"`
	// Scalar: per-call latency of the scalar collectives.
	Scalar []hierScalarPoint `json:"scalar"`
	// Alltoallv: AlltoallvInto over []float64, flat vs two-level; Elems
	// and Bytes are per rank pair.
	Alltoallv []hierPoint `json:"alltoallv"`
	// Forestfire domain decomposition on the same platform: the blocking
	// halo exchange vs the nonblocking-collective overlap restructure.
	FireBlockingNs float64 `json:"forestfire_blocking_ns"`
	FireOverlapNs  float64 `json:"forestfire_overlap_ns"`
	// The two acceptance pins.
	AllreduceSpeedup1MiB float64 `json:"allreduce_1mib_speedup"`
	OverlapSpeedup       float64 `json:"forestfire_overlap_speedup"`
	Quick                bool    `json:"quick,omitempty"`
	Timestamp            string  `json:"timestamp"`
}

// hierIters scales iteration counts to the modeled cost of one call: large
// payloads pay real (modeled) transmission time, so a few calls suffice.
func hierIters(bytes int) int {
	it := (1 << 20) / bytes
	if it < 3 {
		return 3
	}
	if it > 32 {
		return 32
	}
	return it
}

// runHierBench runs the sweep and merges the section into the report at path.
func runHierBench(path string, quick bool) error {
	const np = 8
	plat := cluster.PiCluster(2)
	sizes := []int{1024, 16384, hierPinElems} // 8 KiB, 128 KiB, 1 MiB
	rounds := 2
	if quick {
		sizes = []int{1024, hierPinElems}
		rounds = 1
	}

	var h hierBenchReport
	h.Platform = plat.String()
	h.NP = np
	h.Quick = quick
	h.Timestamp = time.Now().UTC().Format(time.RFC3339)

	fmt.Printf("hierarchical collectives on %s, np=%d (200us inter-node latency, contended Fast Ethernet links)\n", plat, np)
	fmt.Printf("\n  AllreduceSlice []float64: flat vs two-level\n")
	fmt.Printf("  %10s %10s %14s %14s %9s\n", "elems", "bytes", "flat ns", "two-level ns", "speedup")
	for _, elems := range sizes {
		pt := hierPoint{Elems: elems, Bytes: 8 * elems}
		iters := hierIters(pt.Bytes)
		var err error
		pt.FlatNs, pt.HierNs, err = flatVsHier(rounds, func(mode mpi.HierMode) (float64, error) {
			return timeHierAllreduce(plat, np, iters, elems, mode)
		})
		if err != nil {
			return err
		}
		pt.Speedup = pt.FlatNs / pt.HierNs
		h.Allreduce = append(h.Allreduce, pt)
		fmt.Printf("  %10d %10d %14.0f %14.0f %8.2fx\n", pt.Elems, pt.Bytes, pt.FlatNs, pt.HierNs, pt.Speedup)
		if elems == hierPinElems {
			h.AllreduceSpeedup1MiB = pt.Speedup
		}
	}

	fmt.Printf("\n  scalar collectives: flat vs two-level (ns/call)\n")
	fmt.Printf("  %10s %14s %14s %9s\n", "op", "flat ns", "two-level ns", "speedup")
	for _, op := range []string{"bcast", "allreduce", "barrier"} {
		pt := hierScalarPoint{Op: op}
		var err error
		pt.FlatNs, pt.HierNs, err = flatVsHier(rounds, func(mode mpi.HierMode) (float64, error) {
			return timeHierScalar(plat, np, 20, op, mode)
		})
		if err != nil {
			return err
		}
		pt.Speedup = pt.FlatNs / pt.HierNs
		h.Scalar = append(h.Scalar, pt)
		fmt.Printf("  %10s %14.0f %14.0f %8.2fx\n", pt.Op, pt.FlatNs, pt.HierNs, pt.Speedup)
	}

	fmt.Printf("\n  AlltoallvInto []float64: flat vs two-level\n")
	fmt.Printf("  %10s %10s %14s %14s %9s\n", "elems/pair", "bytes/pair", "flat ns", "two-level ns", "speedup")
	for _, elems := range []int{128, 8192} { // 1 KiB, 64 KiB per pair
		pt := hierPoint{Elems: elems, Bytes: 8 * elems}
		iters := hierIters(np * pt.Bytes)
		var err error
		pt.FlatNs, pt.HierNs, err = flatVsHier(rounds, func(mode mpi.HierMode) (float64, error) {
			return timeHierAlltoallv(plat, np, iters, elems, mode)
		})
		if err != nil {
			return err
		}
		pt.Speedup = pt.FlatNs / pt.HierNs
		h.Alltoallv = append(h.Alltoallv, pt)
		fmt.Printf("  %10d %10d %14.0f %14.0f %8.2fx\n", pt.Elems, pt.Bytes, pt.FlatNs, pt.HierNs, pt.Speedup)
	}

	// Forestfire: the blocking domain decomposition against the overlap
	// restructure, same forest, same platform. Bit-identical results are
	// pinned by the package tests; here only the wall clock differs.
	fireRows, fireCols, fireRounds := 96, 64, 3
	if quick {
		fireRows, fireCols, fireRounds = 40, 40, 1
	}
	h.FireBlockingNs, h.FireOverlapNs = -1, -1
	for round := 0; round < fireRounds; round++ {
		blocking, err := timeFire(plat, np, fireRows, fireCols, false)
		if err != nil {
			return err
		}
		overlap, err := timeFire(plat, np, fireRows, fireCols, true)
		if err != nil {
			return err
		}
		if h.FireBlockingNs < 0 || blocking < h.FireBlockingNs {
			h.FireBlockingNs = blocking
		}
		if h.FireOverlapNs < 0 || overlap < h.FireOverlapNs {
			h.FireOverlapNs = overlap
		}
	}
	h.OverlapSpeedup = h.FireBlockingNs / h.FireOverlapNs
	fmt.Printf("\n  forestfire %dx%d domain decomposition: blocking %.1fms vs overlap %.1fms (%.2fx)\n",
		fireRows, fireCols, h.FireBlockingNs/1e6, h.FireOverlapNs/1e6, h.OverlapSpeedup)

	fmt.Printf("\npins: allreduce 1 MiB two-level vs flat %.2fx (floor 1.5x)   forestfire overlap %.2fx (floor 1.2x)\n",
		h.AllreduceSpeedup1MiB, h.OverlapSpeedup)

	// Merge: keep every other section of an existing report intact.
	r := loadMPIReport(path)
	r.Hier = &h
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged hier section into %s\n", path)

	if !quick {
		if h.AllreduceSpeedup1MiB < 1.5 {
			return fmt.Errorf("hier pin: two-level allreduce speedup %.2fx below the 1.5x floor", h.AllreduceSpeedup1MiB)
		}
		if h.OverlapSpeedup < 1.2 {
			return fmt.Errorf("overlap pin: forestfire overlap speedup %.2fx below the 1.2x floor", h.OverlapSpeedup)
		}
	}
	return nil
}

// flatVsHier times one measurement flat (HierOff) and two-level (HierAuto),
// alternating, rounds times each, and keeps each side's fastest.
func flatVsHier(rounds int, measure func(mpi.HierMode) (float64, error)) (flat, hier float64, err error) {
	flat, hier = -1, -1
	for round := 0; round < rounds; round++ {
		f, err := measure(mpi.HierOff)
		if err != nil {
			return 0, 0, err
		}
		h, err := measure(mpi.HierAuto)
		if err != nil {
			return 0, 0, err
		}
		if flat < 0 || f < flat {
			flat = f
		}
		if hier < 0 || h < hier {
			hier = h
		}
	}
	return flat, hier, nil
}

// timeHierAllreduce reports nanoseconds per AllreduceSlice of an elems-long
// []float64 on the modeled platform, with the given hierarchy policy.
func timeHierAllreduce(plat cluster.Platform, np, iters, elems int, mode mpi.HierMode) (float64, error) {
	runtime.GC()
	sum := func(a, b float64) float64 { return a + b }
	var elapsed time.Duration
	err := plat.Launch(np, func(c *mpi.Comm) error {
		v := make([]float64, elems)
		for i := range v {
			v[i] = float64(c.Rank() + i)
		}
		// One untimed call absorbs first-use costs; min over two batches
		// absorbs scheduler noise around the modeled sleeps.
		if _, err := mpi.AllreduceSlice(c, v, sum); err != nil {
			return err
		}
		for batch := 0; batch < 2; batch++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := mpi.AllreduceSlice(c, v, sum); err != nil {
					return err
				}
			}
			if d := time.Since(start); c.Rank() == 0 && (elapsed == 0 || d < elapsed) {
				elapsed = d
			}
		}
		return nil
	}, mpi.WithHierarchy(mode))
	if err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), nil
}

// timeHierAlltoallv reports nanoseconds per AlltoallvInto exchanging elems
// float64 with every rank (itself included) on the modeled platform.
func timeHierAlltoallv(plat cluster.Platform, np, iters, elems int, mode mpi.HierMode) (float64, error) {
	runtime.GC()
	var elapsed time.Duration
	err := plat.Launch(np, func(c *mpi.Comm) error {
		counts := make([]int, c.Size())
		for i := range counts {
			counts[i] = elems
		}
		send := make([]float64, c.Size()*elems)
		for i := range send {
			send[i] = float64(c.Rank()*len(send) + i)
		}
		recv := make([]float64, len(send))
		if err := mpi.AlltoallvInto(c, send, counts, recv, counts); err != nil {
			return err
		}
		for batch := 0; batch < 2; batch++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := mpi.AlltoallvInto(c, send, counts, recv, counts); err != nil {
					return err
				}
			}
			if d := time.Since(start); c.Rank() == 0 && (elapsed == 0 || d < elapsed) {
				elapsed = d
			}
		}
		return nil
	}, mpi.WithHierarchy(mode))
	if err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), nil
}

// timeHierScalar reports nanoseconds per scalar collective call on the
// modeled platform.
func timeHierScalar(plat cluster.Platform, np, iters int, op string, mode mpi.HierMode) (float64, error) {
	runtime.GC()
	sum := func(a, b int) int { return a + b }
	var elapsed time.Duration
	err := plat.Launch(np, func(c *mpi.Comm) error {
		call := func() error {
			switch op {
			case "bcast":
				_, err := mpi.Bcast(c, c.Rank(), 0)
				return err
			case "allreduce":
				_, err := mpi.Allreduce(c, c.Rank(), sum)
				return err
			default:
				return c.Barrier()
			}
		}
		if err := call(); err != nil {
			return err
		}
		// Timed at the last rank, not the root: a Bcast root returns as soon
		// as its sends are queued, so only a rank that must receive every
		// message observes the real per-call cost.
		for batch := 0; batch < 2; batch++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := call(); err != nil {
					return err
				}
			}
			if d := time.Since(start); c.Rank() == c.Size()-1 && (elapsed == 0 || d < elapsed) {
				elapsed = d
			}
		}
		return nil
	}, mpi.WithHierarchy(mode))
	if err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), nil
}

// timeFire reports nanoseconds per full forestfire domain-decomposed burn on
// the modeled platform, blocking or overlapped.
func timeFire(plat cluster.Platform, np, rows, cols int, overlap bool) (float64, error) {
	runtime.GC()
	const prob, seed = 0.7, 11
	var elapsed time.Duration
	err := plat.Launch(np, func(c *mpi.Comm) error {
		run := func() error {
			var err error
			if overlap {
				_, err = forestfire.SimulateDomainOverlap(c, rows, cols, prob, seed)
			} else {
				_, err = forestfire.SimulateDomainMPI(c, rows, cols, prob, seed)
			}
			return err
		}
		if err := run(); err != nil { // untimed warm-up burn
			return err
		}
		start := time.Now()
		if err := run(); err != nil {
			return err
		}
		if d := time.Since(start); c.Rank() == 0 {
			elapsed = d
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()), nil
}

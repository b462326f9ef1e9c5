package mpi

import (
	"fmt"
	"reflect"
	"testing"
)

// The vector-collective parity property: every *Slice collective is
// element-equal to its scalar counterpart — across world sizes (including
// non-powers-of-two, which exercise the ring's remainder segments), payload
// sizes straddling the algorithm threshold, and every transport
// configuration (local fast path, forced serialization, TCP v1 framing,
// TCP legacy gob). All test data is integer-valued, so elementwise sums are
// exact regardless of reduction order and "element-equal" is well-defined
// even for float64 payloads.

// parityRunners enumerates the transport configurations the parity property
// must hold on.
func parityRunners() map[string]func(np int, main func(c *Comm) error, opts ...Option) error {
	return map[string]func(np int, main func(c *Comm) error, opts ...Option) error{
		"local": Run,
		"local-gob": func(np int, main func(c *Comm) error, opts ...Option) error {
			return Run(np, main, append(opts, WithSerialization())...)
		},
		"tcp": RunTCP,
	}
}

// shmParityRunners adds the shared-memory transport configurations on
// platforms that support it: default tuning (the size sweep stays eager) and
// a low eager ceiling so the same sweep straddles the eager/rendezvous
// protocol crossover mid-run.
func shmParityRunners() map[string]func(np int, main func(c *Comm) error, opts ...Option) error {
	if !shmSupported {
		return nil
	}
	return map[string]func(np int, main func(c *Comm) error, opts ...Option) error{
		"shm": RunShm,
		"shm-rdv": func(np int, main func(c *Comm) error, opts ...Option) error {
			prev := SetShmTuning(ShmTuning{EagerMax: 256})
			defer SetShmTuning(prev)
			return RunShm(np, main, opts...)
		},
	}
}

// straddleTuning pins the threshold and chunk low so the size sweep crosses
// both algorithm families cheaply; the chunk deliberately does not divide
// the vector sizes, exercising the short tail chunk.
var straddleTuning = CollectiveTuning{VectorThreshold: 64, BcastChunk: 48}

func TestVectorCollectiveParity(t *testing.T) {
	prev := SetCollectiveTuning(straddleTuning)
	defer SetCollectiveTuning(prev)

	sizes := []int{0, 1, 3, 63, 64, 65, 200, 1000}
	nps := []int{1, 2, 3, 4, 8}
	runners := parityRunners()
	// The shm runners mutate global shm tuning, so they run sequentially;
	// sequential subtests finish before the parallel tcp ones resume.
	for name, runner := range shmParityRunners() {
		runners[name] = runner
	}
	for name, runner := range runners {
		t.Run(name, func(t *testing.T) {
			if name == "tcp" {
				t.Parallel()
			}
			for _, np := range nps {
				np := np
				t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
					for _, sz := range sizes {
						if err := runner(np, func(c *Comm) error {
							return checkVectorParity(c, sz)
						}); err != nil {
							t.Fatalf("np=%d size=%d: %v", np, sz, err)
						}
					}
				})
			}
		})
	}
}

// checkVectorParity runs every *Slice collective and its scalar counterpart
// in one world and demands element equality.
func checkVectorParity(c *Comm, sz int) error {
	n := c.Size()
	rank := c.Rank()
	sum := func(a, b float64) float64 { return a + b }

	// Equal-length per-rank input for the reductions and the broadcast.
	v := make([]float64, sz)
	for i := range v {
		v[i] = float64((rank + 1) * (i + 3) % 101)
	}

	scalar, err := Allreduce(c, append([]float64(nil), v...), sliceReduce(sum))
	if err != nil {
		return fmt.Errorf("scalar Allreduce: %w", err)
	}
	vector, err := AllreduceSlice(c, v, sum)
	if err != nil {
		return fmt.Errorf("AllreduceSlice: %w", err)
	}
	if !equalSlices(scalar, vector) {
		return fmt.Errorf("AllreduceSlice diverges from Allreduce at size %d", sz)
	}
	vecOp, err := AllreduceSliceOp(c, v, Sum)
	if err != nil {
		return fmt.Errorf("AllreduceSliceOp: %w", err)
	}
	if !equalSlices(scalar, vecOp) {
		return fmt.Errorf("AllreduceSliceOp diverges from Allreduce at size %d", sz)
	}

	for root := 0; root < n; root++ {
		sred, err := Reduce(c, append([]float64(nil), v...), sliceReduce(sum), root)
		if err != nil {
			return fmt.Errorf("scalar Reduce: %w", err)
		}
		vred, err := ReduceSlice(c, v, sum, root)
		if err != nil {
			return fmt.Errorf("ReduceSlice: %w", err)
		}
		if rank == root {
			if !equalSlices(sred, vred) {
				return fmt.Errorf("ReduceSlice diverges from Reduce at size %d root %d", sz, root)
			}
		} else if vred != nil {
			return fmt.Errorf("ReduceSlice returned %d elements at non-root", len(vred))
		}
		vredOp, err := ReduceSliceOp(c, v, Sum, root)
		if err != nil {
			return fmt.Errorf("ReduceSliceOp: %w", err)
		}
		if rank == root {
			if !equalSlices(sred, vredOp) {
				return fmt.Errorf("ReduceSliceOp diverges from Reduce at size %d root %d", sz, root)
			}
		} else if vredOp != nil {
			return fmt.Errorf("ReduceSliceOp returned %d elements at non-root", len(vredOp))
		}

		sb, err := Bcast(c, append([]float64(nil), v...), root)
		if err != nil {
			return fmt.Errorf("scalar Bcast: %w", err)
		}
		vb, err := BcastSlice(c, v, root)
		if err != nil {
			return fmt.Errorf("BcastSlice: %w", err)
		}
		if !equalSlices(sb, vb) {
			return fmt.Errorf("BcastSlice diverges from Bcast at size %d root %d", sz, root)
		}
	}

	// Variable-length per-rank blocks for the gather family.
	blk := make([]float64, sz%7+3*rank)
	for i := range blk {
		blk[i] = float64(rank*1000 + i)
	}
	sgat, err := Allgather(c, append([]float64(nil), blk...))
	if err != nil {
		return fmt.Errorf("scalar Allgather: %w", err)
	}
	vgat, err := AllgatherSlice(c, blk)
	if err != nil {
		return fmt.Errorf("AllgatherSlice: %w", err)
	}
	if !equalSlices(flatten(sgat), vgat) {
		return fmt.Errorf("AllgatherSlice diverges from Allgather at size %d", sz)
	}

	g, err := GatherSlice(c, blk, 0)
	if err != nil {
		return fmt.Errorf("GatherSlice: %w", err)
	}
	if rank == 0 {
		if !equalSlices(flatten(sgat), g) {
			return fmt.Errorf("GatherSlice diverges from Allgather concatenation at size %d", sz)
		}
	} else if g != nil {
		return fmt.Errorf("GatherSlice returned %d elements at non-root", len(g))
	}

	// ScatterSlice against the decomposition it documents: every rank can
	// reconstruct root's data deterministically.
	data := make([]float64, sz)
	for i := range data {
		data[i] = float64(7*i + 1)
	}
	sc, err := ScatterSlice(c, data, 0)
	if err != nil {
		return fmt.Errorf("ScatterSlice: %w", err)
	}
	lo, hi := segRange(sz, rank, n)
	if !equalSlices(data[lo:hi], sc) {
		return fmt.Errorf("ScatterSlice block mismatch at size %d rank %d", sz, rank)
	}
	return nil
}

func equalSlices(a, b []float64) bool {
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

func flatten(blocks [][]float64) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// TestVectorParityInts runs the reduction parity on []int payloads: the
// other heavily used whitelisted element type, and the one the forestfire
// halo rides on.
func TestVectorParityInts(t *testing.T) {
	prev := SetCollectiveTuning(straddleTuning)
	defer SetCollectiveTuning(prev)
	for _, np := range []int{1, 3, 4} {
		for _, sz := range []int{5, 64, 257} {
			err := Run(np, func(c *Comm) error {
				v := make([]int, sz)
				for i := range v {
					v[i] = (c.Rank() + 2) * i
				}
				want, err := Allreduce(c, append([]int(nil), v...), sliceReduce(func(a, b int) int { return a + b }))
				if err != nil {
					return err
				}
				got, err := AllreduceSlice(c, v, func(a, b int) int { return a + b })
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(want, got) {
					return fmt.Errorf("int AllreduceSlice mismatch at np=%d size=%d", np, sz)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestVectorOpParity pins the operator-specialized entry points against the
// closure variants for every built-in operator, on worlds that exercise both
// reduce-scatter shapes (np=4 halving, np=3 ring) and on transports that
// exercise every receive representation (typed local values, raw wire views,
// serialized decode; shm staging views where supported). The data is
// negative-heavy and includes zeros on purpose: the specialized paths
// first-touch a zeroed accumulator from v instead of starting from a copy of
// it, and a fold that ever read those untouched zeros would corrupt exactly
// Max over negative inputs or Prod over anything.
func TestVectorOpParity(t *testing.T) {
	prev := SetCollectiveTuning(CollectiveTuning{VectorThreshold: 16, BcastChunk: 48})
	defer SetCollectiveTuning(prev)

	runners := map[string]func(np int, main func(c *Comm) error, opts ...Option) error{
		"local": Run,
		"local-gob": func(np int, main func(c *Comm) error, opts ...Option) error {
			return Run(np, main, append(opts, WithSerialization())...)
		},
		"tcp": RunTCP,
	}
	if shmSupported {
		runners["shm"] = RunShm
	}
	ops := []Op{Sum, Prod, Max, Min}
	for name, runner := range runners {
		t.Run(name, func(t *testing.T) {
			for _, np := range []int{3, 4} {
				for _, sz := range []int{65, 200} {
					err := runner(np, func(c *Comm) error {
						v := make([]float64, sz)
						for i := range v {
							// Negative-dominated, zero-crossing, exactly
							// representable halves; Prod stays finite because
							// most magnitudes are below one.
							v[i] = -2 + float64((c.Rank()*7+i*3)%9)*0.5
						}
						for _, op := range ops {
							want, err := AllreduceSlice(c, v, Combine[float64](op))
							if err != nil {
								return fmt.Errorf("AllreduceSlice(%v): %w", op, err)
							}
							got, err := AllreduceSliceOp(c, v, op)
							if err != nil {
								return fmt.Errorf("AllreduceSliceOp(%v): %w", op, err)
							}
							if !reflect.DeepEqual(want, got) {
								return fmt.Errorf("AllreduceSliceOp(%v) diverges at np=%d size=%d", op, c.Size(), sz)
							}
							wantRed, err := ReduceSlice(c, v, Combine[float64](op), 0)
							if err != nil {
								return fmt.Errorf("ReduceSlice(%v): %w", op, err)
							}
							gotRed, err := ReduceSliceOp(c, v, op, 0)
							if err != nil {
								return fmt.Errorf("ReduceSliceOp(%v): %w", op, err)
							}
							if !reflect.DeepEqual(wantRed, gotRed) {
								return fmt.Errorf("ReduceSliceOp(%v) diverges at np=%d size=%d root=0", op, c.Size(), sz)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestVectorThresholdFallback pins the algorithm switch: at or below the
// threshold AllreduceSlice must produce no vector traffic (it defers to the
// scalar tree); above it, power-of-two worlds take recursive halving/doubling
// (n·log2(n) messages per phase) and the rest take the ring (n·(n−1)).
func TestVectorThresholdFallback(t *testing.T) {
	prev := SetCollectiveTuning(CollectiveTuning{VectorThreshold: 100, BcastChunk: 64})
	defer SetCollectiveTuning(prev)
	sum := func(a, b float64) float64 { return a + b }

	for _, tc := range []struct {
		np        int
		size      int
		wantVec   int // messages under each vector tag
		wantScala bool
	}{
		{np: 4, size: 100, wantVec: 0, wantScala: true},
		{np: 4, size: 101, wantVec: 4 * 2, wantScala: false}, // halving/doubling: log2(4) per rank
		{np: 3, size: 101, wantVec: 3 * 2, wantScala: false}, // ring: n−1 per rank
	} {
		mc := NewMessageCounter()
		err := Run(tc.np, func(c *Comm) error {
			v := make([]float64, tc.size)
			_, err := AllreduceSlice(c, v, sum)
			return err
		}, WithCounter(mc))
		if err != nil {
			t.Fatal(err)
		}
		if got := mc.Tag(tagVecRed); got != tc.wantVec {
			t.Errorf("np %d size %d: %d reduce-scatter messages, want %d", tc.np, tc.size, got, tc.wantVec)
		}
		if got := mc.Tag(tagVecAg); got != tc.wantVec {
			t.Errorf("np %d size %d: %d allgather messages, want %d", tc.np, tc.size, got, tc.wantVec)
		}
		if scalarUsed := mc.Tag(tagReduce) > 0; scalarUsed != tc.wantScala {
			t.Errorf("np %d size %d: scalar tree used = %v, want %v", tc.np, tc.size, scalarUsed, tc.wantScala)
		}
	}
}

// TestSetCollectiveTuning pins the knob's contract: it returns the previous
// tuning and sanitizes nonsensical values.
func TestSetCollectiveTuning(t *testing.T) {
	orig := SetCollectiveTuning(CollectiveTuning{VectorThreshold: 7, BcastChunk: 9})
	defer SetCollectiveTuning(orig)
	got := SetCollectiveTuning(CollectiveTuning{VectorThreshold: -5, BcastChunk: 0})
	if got.VectorThreshold != 7 || got.BcastChunk != 9 {
		t.Errorf("previous tuning = %+v, want {7 9}", got)
	}
	cur := collectiveTuning()
	if cur.VectorThreshold != 0 {
		t.Errorf("negative threshold clamped to %d, want 0", cur.VectorThreshold)
	}
	if cur.BcastChunk != defaultCollectiveTuning.BcastChunk {
		t.Errorf("nonpositive chunk reset to %d, want default %d", cur.BcastChunk, defaultCollectiveTuning.BcastChunk)
	}
}

// segRange must tile [0, n) exactly, remainder-first, for every shape the
// rings can see.
func TestSegRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 65, 1000} {
		for _, k := range []int{1, 2, 3, 4, 7, 8} {
			prev := 0
			for i := 0; i < k; i++ {
				lo, hi := segRange(n, i, k)
				if lo != prev {
					t.Fatalf("segRange(%d,%d,%d): lo %d, want %d", n, i, k, lo, prev)
				}
				if hi < lo {
					t.Fatalf("segRange(%d,%d,%d): hi %d < lo %d", n, i, k, hi, lo)
				}
				if w := hi - lo; w != n/k && w != n/k+1 {
					t.Fatalf("segRange(%d,%d,%d): width %d not near-equal", n, i, k, w)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("segRange(%d,*,%d) covers %d, want %d", n, k, prev, n)
			}
		}
	}
}

package shm

import (
	"sync"
	"testing"
	"testing/quick"
)

// TestGuidedChunkFloor is the table-driven pin on the guided chunk-size
// rule: chunks are remaining/(2·threads) floored at min, and the floor is
// honest at the tail — a grab never leaves fewer than min iterations
// stranded, so no handed-out chunk is ever smaller than min (unless the
// whole loop is).
func TestGuidedChunkFloor(t *testing.T) {
	cases := []struct {
		remaining, threads, min int
		want                    int
	}{
		// Plenty remaining: the classic remaining/(2·threads).
		{remaining: 1000, threads: 4, min: 1, want: 125},
		{remaining: 1000, threads: 1, min: 1, want: 500},
		{remaining: 64, threads: 2, min: 3, want: 16},
		// Floor engages: remaining/(2·threads) < min.
		{remaining: 20, threads: 4, min: 5, want: 5},
		{remaining: 10, threads: 8, min: 3, want: 3},
		// Tail-swallow: taking min would strand fewer than min, so the
		// grab takes everything (the seed implementation instead handed
		// out a sub-min final chunk here).
		{remaining: 4, threads: 4, min: 3, want: 4},
		{remaining: 5, threads: 2, min: 3, want: 5},
		{remaining: 7, threads: 8, min: 4, want: 7},
		// Exactly min left.
		{remaining: 3, threads: 4, min: 3, want: 3},
		// Fewer than min left in the whole loop: the unavoidable case.
		{remaining: 2, threads: 4, min: 5, want: 2},
		{remaining: 1, threads: 1, min: 1, want: 1},
		// Degenerate inputs.
		{remaining: 0, threads: 4, min: 3, want: 0},
		{remaining: 10, threads: 3, min: 0, want: 1}, // min clamps to 1
	}
	for _, c := range cases {
		got := guidedChunk(c.remaining, c.threads, c.min)
		if got != c.want {
			t.Errorf("guidedChunk(%d, %d, %d) = %d, want %d",
				c.remaining, c.threads, c.min, got, c.want)
		}
	}
}

// TestGuidedChunkFloorProperty sweeps remaining/threads/min combinations
// and asserts the two invariants directly: every chunk is at least
// min(min, remaining), and a grab never strands a sub-min tail.
func TestGuidedChunkFloorProperty(t *testing.T) {
	for remaining := 0; remaining <= 120; remaining++ {
		for _, threads := range []int{1, 2, 3, 4, 8, 16} {
			for _, min := range []int{1, 2, 3, 5, 8} {
				c := guidedChunk(remaining, threads, min)
				if remaining == 0 {
					if c != 0 {
						t.Fatalf("guidedChunk(0,%d,%d) = %d, want 0", threads, min, c)
					}
					continue
				}
				floor := min
				if remaining < floor {
					floor = remaining
				}
				if c < floor {
					t.Fatalf("guidedChunk(%d,%d,%d) = %d below floor %d",
						remaining, threads, min, c, floor)
				}
				if c > remaining {
					t.Fatalf("guidedChunk(%d,%d,%d) = %d exceeds remaining",
						remaining, threads, min, c)
				}
				if left := remaining - c; left > 0 && left < min {
					t.Fatalf("guidedChunk(%d,%d,%d) = %d strands sub-min tail %d",
						remaining, threads, min, c, left)
				}
			}
		}
	}
}

// TestGuidedScheduleNeverHandsOutSubMinChunks runs real guided loops and
// checks that every index runs exactly once and that the loop hands out the
// chunks guidedChunk prescribes. A chunk runs whole on one thread, and the
// shared counter's chunk sequence is a pure function of (n, threads, min),
// so the owning thread may change only at a prescribed chunk start, and
// every maximal run of consecutive indices owned by one thread (a union of
// whole chunks) is at least min long in a loop of at least min iterations.
func TestGuidedScheduleNeverHandsOutSubMinChunks(t *testing.T) {
	const threads = 4
	for _, min := range []int{2, 3, 5} {
		for _, n := range []int{1, 7, 50, 257} {
			counts := make([]int, n)
			owner := make([]int, n)
			var mu sync.Mutex
			Parallel(threads, func(tc *ThreadContext) {
				tc.For(n, Guided(min), func(i int) {
					mu.Lock()
					counts[i]++
					owner[i] = tc.ThreadNum()
					mu.Unlock()
				})
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("min=%d n=%d: index %d ran %d times", min, n, i, c)
				}
			}
			starts := map[int]bool{}
			for cur := 0; cur < n; cur += guidedChunk(n-cur, threads, min) {
				starts[cur] = true
			}
			for lo := 0; lo < n; {
				hi := lo + 1
				for hi < n && owner[hi] == owner[lo] {
					hi++
				}
				if hi < n && !starts[hi] {
					t.Fatalf("min=%d n=%d: thread %d ran [%d,%d), ending inside a chunk",
						min, n, owner[lo], lo, hi)
				}
				if n >= min && hi-lo < min {
					t.Fatalf("min=%d n=%d: thread %d ran [%d,%d), a chunk below the minimum",
						min, n, owner[lo], lo, hi)
				}
				lo = hi
			}
		}
	}
}

// TestScheduleParityProperty is the randomized schedule-parity pin: for
// arbitrary (iterations, threads, chunk), every schedule kind — static,
// cyclic, dynamic, guided — covers every index exactly once.
func TestScheduleParityProperty(t *testing.T) {
	prop := func(threadsRaw, nRaw, chunkRaw uint8) bool {
		threads := int(threadsRaw%8) + 1
		n := int(nRaw % 250)
		chunk := int(chunkRaw % 9)
		for kind := ScheduleStatic; kind <= ScheduleGuided; kind++ {
			counts := make([]int, n)
			var mu sync.Mutex
			ParallelFor(threads, n, Schedule{Kind: kind, Chunk: chunk}, func(i int) {
				mu.Lock()
				counts[i]++
				mu.Unlock()
			})
			for _, c := range counts {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The chunk_handout_ns probe: cost of an empty 4096-iteration Dynamic(1)
// loop at several team widths, every chunk claimed from the shared counter.
func benchChunkHandout(b *testing.B, threads int) {
	const n = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parallel(threads, func(tc *ThreadContext) {
			tc.For(n, Dynamic(1), func(int) {})
		})
	}
}

func BenchmarkChunkHandout2T(b *testing.B)  { benchChunkHandout(b, 2) }
func BenchmarkChunkHandout8T(b *testing.B)  { benchChunkHandout(b, 8) }
func BenchmarkChunkHandout16T(b *testing.B) { benchChunkHandout(b, 16) }

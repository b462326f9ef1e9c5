package shm

import (
	"runtime"
	"sync/atomic"
)

// loopState is the shared state of one work-sharing construct: the atomic
// iteration counter the Dynamic and Guided schedules hand chunks out of,
// first-come first-served. A fresh one is installed per construct by the
// generation race in team.loopEnter; the implicit barrier at the end of For
// guarantees no two constructs are active at once within a team.
type loopState struct {
	counter  atomic.Int64
	arrivals int  // guarded by team.mu
	done     bool // guarded by team.mu
}

// loopEnter returns the loop state for the current work-sharing construct,
// installing a fresh one if this thread is the first arrival of a new
// construct.
func (t *team) loopEnter() *loopState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loop == nil || t.loop.done {
		t.loop = &loopState{}
	}
	t.loop.arrivals++
	if t.loop.arrivals == t.size {
		// Last thread to pick up the state marks this construct finished
		// so the next work-sharing construct installs a fresh one.
		t.loop.done = true
	}
	return t.loop
}

// ParallelFor runs body(i) for every i in [0, n) using a team of numThreads
// threads and the given schedule: the OpenMP "parallel for" construct.
// The thread count is resolved by TeamSize and additionally clamped to n.
//
// The iterations of one call never overlap with code after the call (there
// is an implicit join), but iterations assigned to different threads run
// concurrently, so body must synchronize any access to shared state — or,
// better, use ParallelForReduce.
func ParallelFor(numThreads, n int, sched Schedule, body func(i int)) {
	if n <= 0 {
		return
	}
	nt := resolveThreads(numThreads)
	if nt > n {
		nt = n
	}
	Parallel(nt, func(tc *ThreadContext) {
		tc.For(n, sched, body)
	})
}

// For distributes the iterations [0, n) of a loop among the team according
// to the schedule and runs body for the iterations assigned to this thread:
// the orphaned "#pragma omp for" work-sharing construct. Every thread of the
// team must call For with the same n and schedule. The call ends with an
// implicit team barrier, as in OpenMP.
func (tc *ThreadContext) For(n int, sched Schedule, body func(i int)) {
	tc.forNowait(n, sched, body)
	tc.Barrier()
}

// ForNowait is For without the trailing barrier: "#pragma omp for nowait".
func (tc *ThreadContext) ForNowait(n int, sched Schedule, body func(i int)) {
	tc.forNowait(n, sched, body)
}

func (tc *ThreadContext) forNowait(n int, sched Schedule, body func(i int)) {
	if n <= 0 {
		return
	}
	switch sched.Kind {
	case ScheduleStatic:
		lo, hi := staticRange(n, tc.id, tc.team.size)
		for i := lo; i < hi; i++ {
			body(i)
		}
	case ScheduleStaticCyclic:
		chunk := sched.normalizedChunk()
		for start := tc.id * chunk; start < n; start += tc.team.size * chunk {
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				body(i)
			}
		}
	case ScheduleDynamic:
		chunk := sched.normalizedChunk()
		ctr := &tc.team.loopEnter().counter
		for {
			start := int(ctr.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				body(i)
			}
		}
	case ScheduleGuided:
		minChunk := sched.normalizedChunk()
		ctr := &tc.team.loopEnter().counter
		for {
			// Each grab takes a chunk sized by guidedChunk from what the
			// whole team has left. Claim optimistically with a CAS loop.
			for {
				cur := ctr.Load()
				if int(cur) >= n {
					return
				}
				chunk := guidedChunk(n-int(cur), tc.team.size, minChunk)
				if ctr.CompareAndSwap(cur, cur+int64(chunk)) {
					end := int(cur) + chunk
					for i := int(cur); i < end; i++ {
						body(i)
					}
					break
				}
				// CAS lost: another thread advanced the counter. Yield
				// instead of immediately re-contending — with 8+ threads on
				// a tiny minChunk, tight respins serialize on the cache line
				// and burn cycles the winner could use to run its chunk.
				runtime.Gosched()
			}
		}
	default:
		panic("shm: unknown schedule kind")
	}
}

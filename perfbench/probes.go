package main

import (
	"errors"
	"runtime/metrics"
	"time"

	"repro/internal/mpi"
	"repro/internal/shm"
)

// Layer probes time one layer operation in isolation. Each runs probeReps
// batches and reports the median batch, so that percentile's ten-beyond
// rule holds for it too.
const probeReps = 21

// medianOf times probeReps batches of fn and returns the median per call.
// before runs ahead of every batch, outside the timing.
func medianOf(calls int, before func() error, fn func() error) (time.Duration, error) {
	xs := make([]float64, probeReps)
	for r := range xs {
		if before != nil {
			if err := before(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		for i := 0; i < calls; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		xs[r] = float64(time.Since(t)) / float64(calls)
	}
	m, err := percentile(xs, 0.5)
	return time.Duration(m), err
}

// mpiProbe holds rank 0's measurements of the mpi layer on one world.
type mpiProbe struct {
	allreduce, halo, alltoallv time.Duration
	ping                       [3]time.Duration // 8 B, 64 KiB, 1 MiB
	allocsPerMsg               float64
}

var pingSizes = [3]int{8, 64 << 10, 1 << 20}
var pingCalls = [3]int{200, 40, 4}

const probeTag = 7001

// probeMPI runs on every rank of a two-rank world; only rank 0's result is
// meaningful. haloLen is the []int length of one halo shift and a2a the
// float64 count sent to each rank by one AlltoallvInto.
func probeMPI(c *mpi.Comm, haloLen, a2a int, tr *tracer) (mpiProbe, error) {
	var p mpiProbe
	var err error
	rank, np := c.Rank(), c.Size()
	sync := func() error { return c.Barrier() }
	section := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		tr.record(0, 0, -1, rank, name, t0, time.Now())
		return err
	}

	// Ranks time their own copy; rank 0's is reported. Every probe keeps
	// both ranks in lockstep, so the calls pair up.
	err = section("mpi.Allreduce", func() (err error) {
		p.allreduce, err = medianOf(200, sync, func() error {
			_, err := mpi.Allreduce(c, 1, mpi.Combine[int](mpi.Sum))
			return err
		})
		return err
	})
	if err != nil {
		return p, err
	}

	cart, err := mpi.NewCart(c, []int{np}, nil)
	if err != nil {
		return p, err
	}
	halo := make([]int, haloLen)
	err = section("mpi.SendrecvShift", func() (err error) {
		p.halo, err = medianOf(200, sync, func() error {
			var down, up []int
			_, _, err := cart.SendrecvShift(0, probeTag, halo, halo, &down, &up)
			return err
		})
		return err
	})
	if err != nil {
		return p, err
	}

	counts := make([]int, np)
	for i := range counts {
		counts[i] = a2a
	}
	send, recv := make([]float64, np*a2a), make([]float64, np*a2a)
	err = section("mpi.AlltoallvInto", func() (err error) {
		p.alltoallv, err = medianOf(5, sync, func() error {
			return mpi.AlltoallvInto(c, send, counts, recv, counts)
		})
		return err
	})
	if err != nil {
		return p, err
	}

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	for k, size := range pingSizes {
		buf := make([]byte, size)
		var got []byte
		pingpong := func() error {
			if rank == 0 {
				if err := c.Send(1, probeTag, buf); err != nil {
					return err
				}
				_, err := c.Recv(1, probeTag, &got)
				return err
			}
			if rank == 1 {
				if _, err := c.Recv(0, probeTag, &got); err != nil {
					return err
				}
				return c.Send(0, probeTag, buf)
			}
			return nil
		}
		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		var rt time.Duration
		err = section("mpi.SendRecv", func() (err error) {
			rt, err = medianOf(pingCalls[k], sync, pingpong)
			return err
		})
		if err != nil {
			return p, err
		}
		p.ping[k] = rt / 2 // one-way time: half the round trip
		if k == 0 {
			metrics.Read(allocs)
			msgs := 2 * pingCalls[k] * probeReps
			p.allocsPerMsg = float64(allocs[0].Value.Uint64()-a0) / float64(msgs)
		}
		if len(got) != size {
			return p, errors.New("ping-pong probe received a short message")
		}
	}
	return p, c.Barrier()
}

// worldSetup is the median time of launching a two-rank world whose main
// returns at once: formation plus teardown.
func worldSetup(launch launcher, tr *tracer) (time.Duration, error) {
	return medianOf(1, nil, func() error {
		t0 := time.Now()
		err := launch(2, func(*mpi.Comm) error { return nil })
		tr.record(0, 0, -1, -1, "mpi.world", t0, time.Now())
		return err
	})
}

// worldEntry launches a world whose ranks only note when they started. It
// returns the time until the last rank entered main.
func worldEntry(launch launcher, np int) (time.Duration, error) {
	entered := make([]time.Time, np)
	t0 := time.Now()
	err := launch(np, func(c *mpi.Comm) error {
		entered[c.Rank()] = time.Now()
		return nil
	})
	var last time.Duration
	for _, t := range entered {
		if d := t.Sub(t0); d > last {
			last = d
		}
	}
	return last, err
}

// shmProbe times a region launch on the persistent team and the dynamic
// chunk handout, each with an empty body.
func shmProbe(tr *tracer) (region time.Duration, handoutNs float64, err error) {
	const iters = 20_000
	t0 := time.Now()
	region, err = medianOf(200, nil, func() error {
		shm.Parallel(2, func(*shm.ThreadContext) {})
		return nil
	})
	if err != nil {
		return
	}
	t1 := time.Now()
	tr.record(0, 0, -1, -1, "shm.Parallel", t0, t1)
	loop, err := medianOf(1, nil, func() error {
		shm.ParallelFor(2, iters, shm.Dynamic(1), func(int) {})
		return nil
	})
	tr.record(0, 0, -1, -1, "shm.ParallelFor", t1, time.Now())
	return region, float64(loop) / iters, err
}

package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile. A
// p90 from fewer than 100 samples would be set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses when fewer than minBeyond samples lie beyond it. A failed unit is
// recorded as +Inf, so it counts as missing every latency limit.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-k, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// tally counts one run's units. A refused unit (the scheduler answered 429)
// is a failure to the user who submitted it.
type tally struct {
	attempted, failed, refused int
}

func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed+t.refused) / float64(t.attempted)
}

func (t tally) bad() int { return t.failed + t.refused }

// procSnap is the whole-process view: rusage plus the runtime/metrics
// counters the proc.* metrics are built from.
type procSnap struct {
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	mutexWait  float64
	runq       *metrics.Float64Histogram
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sync/mutex/wait/total:seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		mutexWait:  s[3].Value.Float64(),
		runq:       &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets},
	}
}

// procDelta is what a phase cost the process between two snapshots.
type procDelta struct {
	cpu                     time.Duration
	allocs, allocBytes, gcs uint64
	mutexWait               time.Duration
	runqCounts              []uint64
	runqBuckets             []float64
}

func (a procSnap) to(b procSnap) procDelta {
	d := procDelta{
		cpu:         b.cpu - a.cpu,
		allocs:      b.allocs - a.allocs,
		allocBytes:  b.allocBytes - a.allocBytes,
		gcs:         b.gcCycles - a.gcCycles,
		mutexWait:   time.Duration((b.mutexWait - a.mutexWait) * float64(time.Second)),
		runqBuckets: b.runq.Buckets,
	}
	for i := range b.runq.Counts {
		d.runqCounts = append(d.runqCounts, b.runq.Counts[i]-a.runq.Counts[i])
	}
	return d
}

// runqP90 is the 90th percentile of goroutine run-queue wait, read from the
// runtime's histogram: the upper edge of the bucket holding it (the lower
// edge when the bucket is unbounded).
func (d procDelta) runqP90() (time.Duration, error) {
	var total uint64
	for _, c := range d.runqCounts {
		total += c
	}
	k := uint64(math.Ceil(0.9 * float64(total)))
	if total-k < minBeyond {
		return 0, fmt.Errorf("run-queue p90 of %d samples has %d beyond it", total, total-k)
	}
	var cum uint64
	for i, c := range d.runqCounts {
		cum += c
		if cum >= k {
			edge := d.runqBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = d.runqBuckets[i]
			}
			return time.Duration(edge * float64(time.Second)), nil
		}
	}
	return 0, fmt.Errorf("run-queue histogram is empty")
}

// sampleTicks is how many times memSampler reads memory over a phase.
const sampleTicks = 200

// memSampler reads the memory the Go runtime holds (mapped and not
// released to the OS) sampleTicks times while a phase runs. The 90th
// percentile of the samples is the run's peak: the process maximum would
// be set by a single GC cycle's overshoot.
type memSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startMem(phase time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	go func() {
		defer close(m.done)
		t := time.NewTicker(phase / sampleTicks)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				metrics.Read(s)
				m.mb = append(m.mb, float64(s[0].Value.Uint64()-s[1].Value.Uint64())/1e6)
			}
		}
	}()
	return m
}

// finish stops the sampler and returns its samples.
func (m *memSampler) finish() []float64 {
	close(m.stop)
	<-m.done
	return m.mb
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mix is the SplitMix64 finalizer; it derives per-unit seeds from the run
// seed so that every input depends only on --seed.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func unitSeed(seed int64, unit int) int64 {
	return int64(mix(mix(uint64(seed))^uint64(unit)) >> 1)
}

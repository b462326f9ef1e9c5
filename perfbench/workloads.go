package main

import (
	"errors"
	"time"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// minUnits keeps at least ten samples beyond a p90.
const minUnits = 100

// setup is what a batch workload pays before its first unit: forming its
// world.
func (b *batch) setup() (time.Duration, error) { return worldEntry(b.launch, b.np) }

// warmUpFor is how long a run works before it measures: caches fill, lazy
// set-up finishes, and the host has the load before timing starts.
const warmUpFor = 2 * time.Second

// warmUp runs units outside any timing.
func warmUp(b *batch) error {
	w := &phase{b: b, minUnits: 3, deadline: time.Now().Add(warmUpFor)}
	if err := w.run(nil); err != nil {
		return err
	}
	if w.tally.bad() > 0 {
		return errors.New("warm-up units failed their oracle check")
	}
	return nil
}

func batchEndToEnd(b *batch, dur time.Duration) (*result, error) {
	if err := warmUp(b); err != nil {
		return nil, err
	}
	p := &phase{b: b, deadline: time.Now().Add(dur), minUnits: minUnits, setup: b.setup}
	mem := startMem(dur)
	err := p.run(nil)
	memMB := mem.finish()
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.tally = p.tally
	for _, m := range []struct {
		name, unit string
		xs         []float64
		q          float64
	}{
		{"setup_s", "s", p.setupS, 0.5},
		{"unit_ms_p50", "ms", p.unitMs, 0.5},
		{"unit_ms_p90", "ms", p.unitMs, 0.9},
		{"mem_peak_mb", "MB", memMB, 0.9},
	} {
		if err := r.pct(m.name, m.unit, m.xs, m.q); err != nil {
			return nil, err
		}
	}
	r.add("units_per_s", "1/s", float64(p.tally.attempted-p.tally.bad())/p.busySeconds())
	return r, nil
}

// Sizes for the shift and alltoallv probes on a workload that has no halo
// or irregular exchange of its own: pagerank's halo, fire's alltoallv.
const defaultHalo, defaultA2A = 2, 4096

func batchLayers(name string, b *batch, seed int64, dur time.Duration, tr *tracer) (*result, error) {
	if err := warmUp(b); err != nil {
		return nil, err
	}
	l := &layers{}
	// Traced first: its counts size the probes that run after the
	// untraced units, in the same world.
	tp := &phase{b: b, deadline: time.Now().Add(dur / 2), minUnits: countUnits, tr: tr,
		mc: mpi.NewMessageCounter(), gate: &computeGate{}}
	if err := tp.run(nil); err != nil {
		return nil, err
	}
	l.msgsPerUnit = tp.msgs / float64(tp.counted)
	l.bytesPerUnit = tp.bytes / float64(tp.counted)
	halo, a2a := defaultHalo, defaultA2A
	switch name {
	case "fire-local":
		// Every message that is not a halo shift carries one int.
		halo = int((tp.bytes-8*(tp.msgs-tp.haloMsgs))/tp.haloMsgs/8 + 0.5)
	case "pagerank-tcp":
		a2a = int(tp.bytes / (prIters * float64(b.np) * 8 * float64(tp.counted)))
	}
	l.steps = tp.steps / countUnits
	tracedP50, err := tp.p50()
	if err != nil {
		return nil, err
	}

	up := &phase{b: b, deadline: time.Now().Add(dur / 2), minUnits: minUnits}
	probe := func(c *mpi.Comm) error {
		pr, err := probeMPI(c, halo, a2a, tr)
		if c.Rank() == 0 {
			l.probe = pr
		}
		return err
	}
	p0 := readProc()
	if err := up.run(probe); err != nil {
		return nil, err
	}
	l.proc = p0.to(readProc())
	l.units = up.tally.attempted
	p50, err := up.p50()
	if err != nil {
		return nil, err
	}
	l.overheadPct = 100 * (tracedP50 - p50) / p50
	if l.seqMs, err = percentile(up.seqMs, 0.5); err != nil {
		return nil, err
	}
	l.speedup = l.seqMs / p50

	switch name {
	case "fire-local":
		l.commShare = l.steps * float64(l.probe.allreduce+l.probe.halo) / float64(time.Millisecond) / p50
	case "pagerank-tcp":
		var unitSum float64
		for _, u := range tp.unitMs {
			unitSum += u
		}
		computeMs := ms(time.Duration(tp.gate.busy.Load())) / float64(b.np)
		l.commShare = 1 - computeMs/unitSum
	}

	if l.worldSetup, err = worldSetup(b.launch, tr); err != nil {
		return nil, err
	}
	if l.region, l.handoutNs, err = shmProbe(tr); err != nil {
		return nil, err
	}
	// No workload goes through the scheduler; a short open loop of jobs
	// measures that layer, and cluster.Launch under it, on its own.
	if l.jobs, err = runJobs(seed, time.Second, tr); err != nil {
		return nil, err
	}
	r := newResult()
	r.tally = tally{attempted: tp.tally.attempted + up.tally.attempted,
		failed: tp.tally.bad() + up.tally.bad()}
	return r, l.report(r)
}

// layers gathers a traced run's per-layer numbers.
type layers struct {
	msgsPerUnit, bytesPerUnit float64
	probe                     mpiProbe
	worldSetup                time.Duration
	commShare                 float64
	region                    time.Duration
	handoutNs                 float64
	seqMs, speedup, steps     float64
	jobs                      *jobsPhase
	proc                      procDelta
	units                     int
	overheadPct               float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (l *layers) report(r *result) error {
	r.add("error_rate", "ratio", r.tally.errorRate())
	r.add("mpi.msgs_per_unit", "count", l.msgsPerUnit)
	r.add("mpi.bytes_per_unit", "bytes", l.bytesPerUnit)
	r.add("mpi.allreduce_us", "us", us(l.probe.allreduce))
	r.add("mpi.halo_shift_us", "us", us(l.probe.halo))
	r.add("mpi.alltoallv_us", "us", us(l.probe.alltoallv))
	r.add("mpi.pingpong_us.8B", "us", us(l.probe.ping[0]))
	r.add("mpi.pingpong_us.64KiB", "us", us(l.probe.ping[1]))
	r.add("mpi.pingpong_us.1MiB", "us", us(l.probe.ping[2]))
	r.add("mpi.allocs_per_msg", "count", l.probe.allocsPerMsg)
	r.add("mpi.world_setup_ms", "ms", ms(l.worldSetup))
	r.add("mpi.comm_share", "ratio", l.commShare)
	r.add("shm.region_us", "us", us(l.region))
	r.add("shm.handout_ns_per_iter", "ns", l.handoutNs)
	r.add("exemplars.seq_ms_per_unit", "ms", l.seqMs)
	r.add("exemplars.speedup_vs_seq", "ratio", l.speedup)
	r.add("exemplars.steps_per_unit", "count", l.steps)

	j := l.jobs
	if err := r.pct("sched.submit_ms_p50", "ms", j.submitMs(), 0.5); err != nil {
		return err
	}
	if err := r.pct("sched.submit_ms_p90", "ms", j.submitMs(), 0.9); err != nil {
		return err
	}
	if err := r.pct("sched.queue_ms_p90", "ms", j.series(func(st sched.JobStatus) time.Duration {
		return st.Started.Sub(st.Submitted)
	}), 0.9); err != nil {
		return err
	}
	if err := r.pct("sched.run_ms_p50", "ms", j.series(func(st sched.JobStatus) time.Duration {
		return st.Finished.Sub(st.Started)
	}), 0.5); err != nil {
		return err
	}
	if err := r.pct("sched.gen_lag_ms_p90", "ms", j.genLag(), 0.9); err != nil {
		return err
	}
	if err := r.pct("sched.job_ms_p50", "ms", j.latMs, 0.5); err != nil {
		return err
	}
	if err := r.pct("sched.job_ms_p90", "ms", j.latMs, 0.9); err != nil {
		return err
	}
	r.add("sched.rejected", "count", float64(j.tally.refused))
	r.add("sched.failures", "count", float64(j.stats.Failures))
	r.add("sched.requeues", "count", float64(j.stats.Requeues))

	units := float64(l.units)
	r.add("proc.cpu_s_per_unit", "s", l.proc.cpu.Seconds()/units)
	r.add("proc.allocs_per_unit", "count", float64(l.proc.allocs)/units)
	r.add("proc.alloc_bytes_per_unit", "bytes", float64(l.proc.allocBytes)/units)
	r.add("proc.gc_cycles", "count", float64(l.proc.gcs))
	runq, err := l.proc.runqP90()
	if err != nil {
		return err
	}
	r.add("proc.runq_wait_us_p90", "us", us(runq))
	r.add("proc.mutex_wait_ms", "ms", ms(l.proc.mutexWait))
	r.add("trace.overhead_pct", "%", l.overheadPct)
	return nil
}

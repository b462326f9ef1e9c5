package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/exemplars/forestfire"
	"repro/internal/exemplars/pagerank"
	"repro/internal/mpi"
)

// launcher starts an SPMD world: mpi.Run or mpi.RunTCP.
type launcher func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error

// batch is a workload whose unit is one call of an exemplar kernel, checked
// against that exemplar's sequential oracle.
type batch struct {
	launch launcher
	np     int
	kernel func(c *mpi.Comm, unit int) (any, error)
	oracle func(unit int) any
	same   func(got, want any) bool
	steps  func(got any) float64
}

const (
	fireSize, fireProb = 201, 0.7
	prVertices, prDeg  = 50_000, 8
	prIters, prDamping = 10, 0.85
	prTol              = 1e-12
)

func fireBatch(seed int64) *batch {
	return &batch{
		launch: mpi.Run,
		np:     2,
		kernel: func(c *mpi.Comm, unit int) (any, error) {
			return forestfire.SimulateDomainMPI(c, fireSize, fireSize, fireProb, unitSeed(seed, unit))
		},
		oracle: func(unit int) any {
			return forestfire.SimulateHash(fireSize, fireSize, fireProb, unitSeed(seed, unit))
		},
		same:  func(got, want any) bool { return got == want },
		steps: func(got any) float64 { return float64(got.(forestfire.TrialResult).Steps) },
	}
}

// pagerankBatch solves one generated graph in every unit; generating it is
// input preparation and stays outside every timing.
func pagerankBatch(seed int64) *batch {
	g := pagerank.Gen(prVertices, prDeg, seed)
	return &batch{
		launch: mpi.RunTCP,
		np:     2,
		kernel: func(c *mpi.Comm, _ int) (any, error) {
			return pagerank.PageRankMPI(c, g, prDamping, prIters)
		},
		oracle: func(int) any { return pagerank.PageRankSeq(g, prDamping, prIters) },
		same: func(got, want any) bool {
			a, b := got.([]float64), want.([]float64)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if math.Abs(a[i]-b[i]) > prTol {
					return false
				}
			}
			return true
		},
		steps: func(any) float64 { return prIters },
	}
}

// countUnits is how many units of a traced phase the exact counts
// (messages, bytes, steps) are taken over. They are units 0..countUnits-1,
// whose inputs depend only on the seed.
const countUnits = 50

// phase records one timed stretch of units. Only rank 0 touches it while
// units run.
type phase struct {
	b        *batch
	deadline time.Time
	minUnits int
	tr       *tracer
	mc       *mpi.MessageCounter
	gate     *computeGate
	// setup, when set, is timed once after every unit's oracle check:
	// between units, so it neither slows a unit nor sees only the run's
	// first moments.
	setup func() (time.Duration, error)

	unitMs, seqMs, setupS []float64
	tally                 tally
	start, end            time.Time
	offTime               time.Duration // oracle checks and set-up samples
	steps                 float64
	msgs, bytes           float64
	haloMsgs              float64
	counted               int
	harnessMsgs           int
	harnessBytes          int
}

func (p *phase) more(unit int) bool {
	return unit < p.minUnits || time.Now().Before(p.deadline)
}

// finish times the oracle on this unit's inputs and checks the result.
func (p *phase) finish(unit int, unitID int64, t0, t1 time.Time, got any, err error) error {
	p.tally.attempted++
	p.unitMs = append(p.unitMs, ms(t1.Sub(t0)))
	o0 := time.Now()
	want := p.b.oracle(unit)
	o1 := time.Now()
	p.offTime += o1.Sub(o0)
	p.seqMs = append(p.seqMs, ms(o1.Sub(o0)))
	p.tr.record(0, unitID, int64(unit), 0, "exemplars.oracle", o0, o1)
	if err != nil || !p.b.same(got, want) {
		p.tally.failed++
		p.unitMs[len(p.unitMs)-1] = math.Inf(1)
	} else if unit < countUnits {
		p.steps += p.b.steps(got)
	}
	if p.setup == nil {
		return nil
	}
	s0 := time.Now()
	d, err := p.setup()
	p.offTime += time.Since(s0)
	p.setupS = append(p.setupS, d.Seconds())
	return err
}

// computeGate times Comm.Compute calls: the exemplar's local kernel.
type computeGate struct{ busy atomic.Int64 }

func (g *computeGate) run(fn func()) {
	t := time.Now()
	fn()
	g.busy.Add(int64(time.Since(t)))
}

// run runs units until the deadline (and at least minUnits), then
// calls after on every rank of the same world.
func (p *phase) run(after func(c *mpi.Comm) error) error {
	p.start = time.Now()
	defer func() { p.end = time.Now() }()
	var opts []mpi.Option
	if p.mc != nil {
		opts = append(opts, mpi.WithCounter(p.mc))
	}
	if p.gate != nil {
		opts = append(opts, mpi.WithComputeGate(p.gate.run))
	}
	return p.b.launch(p.b.np, func(c *mpi.Comm) error {
		if err := p.worldUnits(c); err != nil {
			return err
		}
		if after != nil {
			return after(c)
		}
		return nil
	}, opts...)
}

// worldUnits is the per-rank unit loop. Rank 0 decides whether another
// unit runs, every rank meets at a barrier, and rank 0 times the kernel
// from the barrier to its own return. Message counts are read on rank 0
// after each barrier; one barrier's own messages, measured before the
// first unit, are subtracted.
func (p *phase) worldUnits(c *mpi.Comm) error {
	rank := c.Rank()
	if p.mc != nil {
		if err := c.Barrier(); err != nil {
			return err
		}
		m0, b0 := p.mc.Total(), p.mc.Bytes()
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			p.harnessMsgs, p.harnessBytes = p.mc.Total()-m0, p.mc.Bytes()-b0
		}
	}
	for i := 0; ; i++ {
		more := 0
		if rank == 0 && p.more(i) {
			more = 1
		}
		more, err := mpi.Bcast(c, more, 0)
		if err != nil {
			return err
		}
		if more == 0 {
			return nil
		}
		id := p.tr.id()
		u0 := time.Now()
		if err := c.Barrier(); err != nil {
			return err
		}
		var m0, b0, h0 int
		if p.mc != nil && rank == 0 {
			m0, b0, h0 = p.mc.Total(), p.mc.Bytes(), p.mc.Tag(fireHaloTag)
		}
		t0 := time.Now()
		got, kerr := p.b.kernel(c, i)
		t1 := time.Now()
		if kerr != nil {
			return kerr
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		u1 := time.Now()
		unit := int64(i)
		p.tr.record(id, 0, unit, rank, "unit", u0, u1)
		p.tr.record(0, id, unit, rank, "mpi.Barrier", u0, t0)
		p.tr.record(0, id, unit, rank, "exemplars.kernel", t0, t1)
		p.tr.record(0, id, unit, rank, "mpi.Barrier", t1, u1)
		if rank != 0 {
			continue
		}
		if p.mc != nil && i < countUnits {
			p.counted++
			p.msgs += float64(p.mc.Total() - m0 - p.harnessMsgs)
			p.bytes += float64(p.mc.Bytes() - b0 - p.harnessBytes)
			p.haloMsgs += float64(p.mc.Tag(fireHaloTag) - h0)
		}
		if err := p.finish(i, id, t0, t1, got, nil); err != nil {
			return err
		}
	}
}

// fireHaloTag is the tag forestfire.SimulateDomainMPI sends its halo
// exchange under; counting it gives the mean halo length the shift probe
// is sized to.
const fireHaloTag = 11

func (p *phase) p50() (float64, error) { return percentile(p.unitMs, 0.5) }

// busySeconds is the phase's wall time minus what it did between units.
func (p *phase) busySeconds() float64 {
	return (p.end.Sub(p.start) - p.offTime).Seconds()
}

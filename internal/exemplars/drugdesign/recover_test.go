package drugdesign

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// The survive-and-continue invariant for the master-worker pattern: a run
// that loses workers — or the master itself — to a seeded kill plan still
// reports exactly the Sequential result, because the score table is
// idempotent and the checkpoint re-queues precisely the unscored ligands.

// firstCommit wraps a checkpoint store and closes committed when the first
// checkpoint commits.
type firstCommit struct {
	ckpt.Store
	once      sync.Once
	committed chan struct{}
}

func newFirstCommit() *firstCommit {
	return &firstCommit{Store: ckpt.NewMemStore(), committed: make(chan struct{})}
}

func (s *firstCommit) Commit(m ckpt.Manifest) error {
	err := s.Store.Commit(m)
	s.once.Do(func() { close(s.committed) })
	return err
}

// holdUntilCheckpoint makes rank hold (-1: none) wait for the first
// checkpoint before it enters the queue. Under dynamic dispatch a worker
// may be handed any number of tasks, so a kill keyed to its Nth send may
// never fire; a held worker's first result send is sure to happen, and
// sure to land after a checkpoint exists — mid-queue by construction.
func holdUntilCheckpoint(c *mpi.Comm, hold int, store *firstCommit) {
	if c.Rank() == hold {
		<-store.committed
	}
}

func runDDRecoverTrial(t *testing.T, launch func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error,
	np int, plan *mpi.FaultPlan, every, hold int) {
	t.Helper()
	p := DefaultParams()
	want, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}

	store := newFirstCommit()
	var mu sync.Mutex
	results := map[int]Result{}
	opts := []mpi.Option{mpi.WithRecovery()}
	if plan != nil {
		opts = append(opts, mpi.WithFaults(*plan))
	}
	done := make(chan error, 1)
	go func() {
		done <- launch(np, func(c *mpi.Comm) error {
			holdUntilCheckpoint(c, hold, store)
			got, err := MPIMasterWorkerRecover(c, p, store, every)
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = got
			mu.Unlock()
			return nil
		}, opts...)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recovered run should report success, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("recovery run wedged")
	}
	if len(results) == 0 {
		t.Fatal("no survivor returned a result")
	}
	for rank, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: recovered result %+v != sequential %+v", rank, got, want)
		}
	}
	if plan != nil && len(results) == np {
		t.Fatal("fault plan injected no failure: every rank survived")
	}
}

func ddKillPlan(victim, skipFirst int) *mpi.FaultPlan {
	return &mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
		Src: victim, Dst: mpi.AnySource, Tag: mpi.AnyTag,
		SkipFirst: skipFirst,
		Action:    mpi.FaultKillRank,
	}}}
}

func TestMasterWorkerRecoverNoFailure(t *testing.T) {
	runDDRecoverTrial(t, mpi.Run, 4, nil, 8, -1)
}

// ddKillCase is one kill scenario: the victim dies on its send number
// skip+1; rank hold (-1: none) first waits for the first checkpoint. Every
// trigger is an event the run is sure to reach: a worker always receives a
// first task, and the master sends once per ligand.
type ddKillCase struct {
	name   string
	np     int
	victim int
	skip   int
	every  int
	hold   int
}

func TestMasterWorkerRecoverKills(t *testing.T) {
	cases := []ddKillCase{
		{"worker-before-first-checkpoint", 4, 2, 0, 10, -1},
		{"worker-mid-queue", 4, 3, 0, 5, 3},
		{"master-dies", 4, 0, 9, 4, -1},
		{"master-dies-late", 5, 0, 60, 8, -1},
	}
	launchers := []struct {
		name string
		run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
	}{
		{"local", mpi.Run},
		{"tcp", mpi.RunTCP},
	}
	for _, l := range launchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					runDDRecoverTrial(t, l.run, tc.np, ddKillPlan(tc.victim, tc.skip), tc.every, tc.hold)
				})
			}
		})
	}
}

// The respawn invariant for the master-worker pattern: a killed worker —
// or the master — comes back into its old slot, the queue finishes at
// the ORIGINAL width (every rank reports the result), and the Result is
// still bit-equal to Sequential's.
func runDDRespawnTrial(t *testing.T, launch func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error,
	np int, plan mpi.FaultPlan, every, hold int) {
	t.Helper()
	p := DefaultParams()
	want, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}

	store := newFirstCommit()
	var mu sync.Mutex
	results := map[int]Result{}
	done := make(chan error, 1)
	go func() {
		done <- launch(np, func(c *mpi.Comm) error {
			holdUntilCheckpoint(c, hold, store)
			got, err := MPIMasterWorkerRespawn(c, p, store, every, 20*time.Second)
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = got
			mu.Unlock()
			return nil
		}, mpi.WithRespawn(), mpi.WithFaults(plan))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("respawned run should report success, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("respawn run wedged")
	}
	if len(results) != np {
		t.Fatalf("%d of %d ranks finished: the world did not return to full width", len(results), np)
	}
	for rank, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: respawned result %+v != sequential %+v", rank, got, want)
		}
	}
}

func ddRespawnKillPlan(victim, skipFirst int) mpi.FaultPlan {
	return mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{{
		Src: victim, Dst: mpi.AnySource, Tag: mpi.AnyTag,
		SkipFirst: skipFirst, Count: 1,
		Action: mpi.FaultKillRank,
	}}}
}

func TestMasterWorkerRespawnFullWidth(t *testing.T) {
	launchers := []struct {
		name string
		run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
	}{
		{"local", mpi.Run},
		{"tcp", mpi.RunTCP},
	}
	if mpi.ShmSupported() {
		launchers = append(launchers, struct {
			name string
			run  func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error
		}{"shm", mpi.RunShm})
	}
	cases := []ddKillCase{
		{"worker-before-first-checkpoint", 4, 2, 0, 10, -1},
		{"worker-mid-queue", 4, 3, 0, 5, 3},
		{"master-dies", 4, 0, 9, 4, -1},
	}
	for _, l := range launchers {
		l := l
		t.Run(l.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					runDDRespawnTrial(t, l.run, tc.np, ddRespawnKillPlan(tc.victim, tc.skip), tc.every, tc.hold)
				})
			}
		})
	}
}

func TestMasterWorkerRecoverTwoWorkersDie(t *testing.T) {
	// np=5 loses two workers, finishing with a master and two workers. Each
	// dies on its first result send, an event sure to happen: a worker whose
	// send was cut short by the other's failure is handed a task again in
	// the shrunken world.
	plan := &mpi.FaultPlan{Seed: 1, Rules: []mpi.FaultRule{
		{Src: 1, Dst: mpi.AnySource, Tag: mpi.AnyTag, Action: mpi.FaultKillRank},
		{Src: 4, Dst: mpi.AnySource, Tag: mpi.AnyTag, Action: mpi.FaultKillRank},
	}}
	runDDRecoverTrial(t, mpi.Run, 5, plan, 6, -1)
}

func TestMasterWorkerRecoverShrinkToOne(t *testing.T) {
	// np=2 and the worker dies: the master finishes the queue alone via
	// the sequential path.
	runDDRecoverTrial(t, mpi.Run, 2, ddKillPlan(1, 7), 10, -1)
}

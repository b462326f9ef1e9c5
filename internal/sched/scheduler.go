package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
)

// Admission and lifecycle errors. The HTTP layer maps these onto status
// codes (see httpStatus); everything else is a 500.
var (
	// ErrQueueFull is global backpressure: the bounded queue is at
	// capacity. Clients should retry after a delay (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("sched: queue full")
	// ErrTenantQuota is per-tenant backpressure: this tenant's queued-job
	// quota is exhausted, though the scheduler itself has room.
	ErrTenantQuota = errors.New("sched: tenant queue quota exhausted")
	// ErrDuplicateID rejects a submit reusing a known job ID — the client
	// is retrying a submit whose response it lost; the job is already in.
	ErrDuplicateID = errors.New("sched: duplicate job id")
	// ErrBadSpec rejects a malformed submission (zero-width gang, unknown
	// program, width beyond the whole cluster, bad kill rank, bad ID).
	ErrBadSpec = errors.New("sched: bad job spec")
	// ErrUnknownJob: no job with that ID.
	ErrUnknownJob = errors.New("sched: unknown job")
	// ErrUnknownNode: no node with that ID.
	ErrUnknownNode = errors.New("sched: unknown node")
	// ErrTerminal rejects canceling a job that already reached a terminal
	// state; the cancel is a no-op and says so.
	ErrTerminal = errors.New("sched: job already terminal")
	// ErrDraining rejects submissions while the scheduler drains or after
	// it closed.
	ErrDraining = errors.New("sched: scheduler is draining")
	// ErrJobTimeout is the interrupt cause of a run that outlived its
	// wall-clock budget; it counts as a failure (spends retry budget).
	ErrJobTimeout = errors.New("sched: job wall-clock timeout")
	// ErrNodeDown is the interrupt cause of a gang evicted by node death;
	// the job is requeued without spending retry budget.
	ErrNodeDown = errors.New("sched: node down")

	// errCancelRun marks an interrupt as a cancellation (client cancel or
	// scheduler shutdown): the job lands in StateCanceled, not retry.
	errCancelRun = errors.New("sched: run canceled")
)

// maxRequeues bounds infrastructure-driven reruns: a job evicted this many
// times is quarantined anyway — by then the "infrastructure" failing is
// plainly the job's own doing, and an unbounded requeue loop is exactly
// the livelock a robustness layer must not contain.
const maxRequeues = 100

// Config parameterizes a Scheduler. Zero values mean the documented
// defaults; the zero Config is a working 4×16 Chameleon scheduler.
type Config struct {
	// Platform is the modeled cluster (default cluster.Chameleon(4, 16)).
	// Node count and core counts come from here; so do the inter-node
	// latency and bandwidth every placed gang pays.
	Platform cluster.Platform
	// Oversubscribe multiplies each node's rank capacity over its core
	// count (default 1: one rank slot per core). Computation still runs
	// under one shared core gate regardless, so oversubscribed ranks make
	// progress without computing simultaneously — the Colab lesson.
	Oversubscribe int
	// QueueCap bounds the total queued jobs (default 256); beyond it
	// Submit fails with ErrQueueFull.
	QueueCap int
	// TenantQueueCap bounds each tenant's queued jobs (default QueueCap);
	// beyond it Submit fails with ErrTenantQuota.
	TenantQueueCap int
	// TenantSlots bounds each tenant's concurrently running jobs
	// (default 0: unlimited).
	TenantSlots int
	// DefaultMaxRetries is the circuit-breaker threshold for jobs that
	// don't set their own (default 2 failed runs retried; the third
	// failure quarantines).
	DefaultMaxRetries int
	// DefaultOpDeadline bounds each MPI operation for jobs that don't set
	// their own (default 5s).
	DefaultOpDeadline time.Duration
	// DefaultTimeout is the per-run wall-clock budget for jobs that don't
	// set their own (default 60s).
	DefaultTimeout time.Duration
	// RetryBase and RetryMax shape the exponential backoff between failed
	// runs: base doubles per failure, capped at max, plus up to 50%
	// seeded jitter (defaults 50ms and 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// StarveAfter is the backfill starvation guard (default 1s): once the
	// oldest capacity-blocked job has waited this long, dispatch stops
	// backfilling around it and lets the cluster drain until it fits.
	StarveAfter time.Duration
	// HeartbeatEvery and HeartbeatGrace drive the node health monitor
	// (defaults 100ms and 500ms): healthy nodes beat every tick; a
	// silenced node that misses beats for the grace window is declared
	// dead and its gangs are evicted.
	HeartbeatEvery time.Duration
	HeartbeatGrace time.Duration
	// Registry resolves program names (default DefaultRegistry()).
	Registry *Registry
	// ArtifactDir, when set, receives one directory per terminal job with
	// its captured output and final status, committed atomically.
	ArtifactDir string
	// CkptDir, when set, roots every job's private checkpoint namespace
	// in a FileStore; empty keeps checkpoints in per-job memory.
	CkptDir string
	// Seed feeds the backoff jitter and injected fault plans (default 1).
	Seed int64
	// Logf, when set, receives one line per significant transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Platform.Name == "" {
		c.Platform = cluster.Chameleon(4, 16)
	}
	if c.Oversubscribe < 1 {
		c.Oversubscribe = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.TenantQueueCap <= 0 {
		c.TenantQueueCap = c.QueueCap
	}
	if c.DefaultMaxRetries <= 0 {
		c.DefaultMaxRetries = 2
	}
	if c.DefaultOpDeadline <= 0 {
		c.DefaultOpDeadline = 5 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.StarveAfter <= 0 {
		c.StarveAfter = time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.HeartbeatGrace <= 0 {
		c.HeartbeatGrace = 500 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = DefaultRegistry()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats is the scheduler's counter snapshot. The robustness invariant the
// chaos tests pin is Lost() == 0: every admitted job is accounted for in
// exactly one bucket, always.
type Stats struct {
	Admitted    int `json:"admitted"`
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Retrying    int `json:"retrying"`
	Succeeded   int `json:"succeeded"`
	Canceled    int `json:"canceled"`
	Quarantined int `json:"quarantined"`
	// Failures counts failed runs (they spend retry budget); Requeues
	// counts infrastructure evictions (they don't).
	Failures int `json:"failures"`
	Requeues int `json:"requeues"`

	Nodes        int `json:"nodes"`
	HealthyNodes int `json:"healthy_nodes"`
	FreeSlots    int `json:"free_slots"`
	TotalSlots   int `json:"total_slots"`
}

// Lost reports admitted jobs not accounted for by any state — the number
// the whole design exists to keep at zero.
func (s Stats) Lost() int {
	return s.Admitted - s.Queued - s.Running - s.Retrying - s.Succeeded - s.Canceled - s.Quarantined
}

// tenantQ is one tenant's scheduling state.
type tenantQ struct {
	queued  []*job // FIFO; requeues go to the back
	running int    // jobs currently placed
}

// Scheduler is the gang-scheduling service. Create with New, stop with
// Close (or Drain then Close). All methods are safe for concurrent use.
type Scheduler struct {
	cfg      Config
	gate     *cluster.CoreGate // one shared gate: the platform's real cores
	ckptRoot *ckpt.FileStore   // nil when checkpoints live in memory

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string // submission order, for List
	tenants     map[string]*tenantQ
	tenantNames []string // ring for round-robin fairness
	rrNext      int
	nodes       []*node
	queuedTotal int
	idSeq       int
	draining    bool
	closed      bool

	admitted int
	failures int
	requeues int

	rngMu sync.Mutex
	rng   *rand.Rand

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// New starts a scheduler: its dispatch loop and node health monitor run
// until Close.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:     cfg,
		gate:    cluster.NewCoreGate(cfg.Platform.TotalCores()),
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenantQ),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	if cfg.CkptDir != "" {
		root, err := ckpt.NewFileStore(cfg.CkptDir)
		if err != nil {
			return nil, err
		}
		s.ckptRoot = root
	}
	now := time.Now()
	for i := 0; i < cfg.Platform.Nodes; i++ {
		s.nodes = append(s.nodes, &node{
			id:       i,
			cores:    cfg.Platform.CoresPerNode * cfg.Oversubscribe,
			healthy:  true,
			beating:  true,
			lastBeat: now,
		})
	}
	s.wg.Add(2)
	go s.dispatchLoop()
	go s.monitorLoop()
	return s, nil
}

// kickNow nudges the dispatch loop; coalescing is fine — one pass drains
// every opportunity.
func (s *Scheduler) kickNow() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

func (s *Scheduler) dispatchLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
			s.mu.Lock()
			s.dispatchLocked()
			s.mu.Unlock()
		}
	}
}

// monitorLoop is the heartbeat monitor: it refreshes beating nodes and
// declares silent ones dead after the grace window, evicting their gangs.
func (s *Scheduler) monitorLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			now := time.Now()
			s.mu.Lock()
			var evict []*job
			var causes []error
			for _, n := range s.nodes {
				if n.beating {
					n.lastBeat = now
					continue
				}
				if n.healthy && now.Sub(n.lastBeat) > s.cfg.HeartbeatGrace {
					s.cfg.Logf("sched: node %d missed heartbeats for %s: declaring dead", n.id, now.Sub(n.lastBeat).Round(time.Millisecond))
					jobs, cs := s.declareNodeDeadLocked(n, "missed heartbeats")
					evict = append(evict, jobs...)
					causes = append(causes, cs...)
				}
			}
			s.mu.Unlock()
			for i, j := range evict {
				j.interrupt(causes[i])
			}
			if len(evict) > 0 {
				s.kickNow()
			}
		}
	}
}

// declareNodeDeadLocked marks the node unhealthy and returns the running
// jobs whose gangs touch it, paired with their eviction causes. Callers
// interrupt outside the lock.
func (s *Scheduler) declareNodeDeadLocked(n *node, why string) ([]*job, []error) {
	n.healthy = false
	n.beating = false
	var jobs []*job
	var causes []error
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == StateRunning && onNode(j.placement, n.id) {
			jobs = append(jobs, j)
			causes = append(causes, fmt.Errorf("sched: job %s evicted: node %d %s: %w", j.spec.ID, n.id, why, ErrNodeDown))
		}
	}
	return jobs, causes
}

// validateSpecLocked checks a submission against the registry and the
// configured platform. It returns the spec with defaults applied.
func (s *Scheduler) validateSpecLocked(spec JobSpec) (JobSpec, error) {
	if spec.Tenant == "" {
		return spec, fmt.Errorf("%w: tenant is required", ErrBadSpec)
	}
	if spec.Width < 1 {
		return spec, fmt.Errorf("%w: gang width %d (a gang needs at least one rank)", ErrBadSpec, spec.Width)
	}
	if spec.MinWidth < 0 || spec.MinWidth > spec.Width {
		return spec, fmt.Errorf("%w: min_width %d outside [0, width %d]", ErrBadSpec, spec.MinWidth, spec.Width)
	}
	maxW := s.cfg.Platform.Nodes * s.cfg.Platform.CoresPerNode * s.cfg.Oversubscribe
	if spec.Width > maxW && (spec.MinWidth == 0 || spec.MinWidth > maxW) {
		return spec, fmt.Errorf("%w: width %d exceeds the cluster's %d slots and min_width allows no shrink", ErrBadSpec, spec.Width, maxW)
	}
	if _, ok := s.cfg.Registry.Resolve(spec.Program); !ok {
		return spec, fmt.Errorf("%w: unknown program %q (have %v)", ErrBadSpec, spec.Program, s.cfg.Registry.Names())
	}
	if spec.KillRank != nil && (*spec.KillRank < 0 || *spec.KillRank >= spec.Width) {
		return spec, fmt.Errorf("%w: kill_rank %d outside the gang [0, %d)", ErrBadSpec, *spec.KillRank, spec.Width)
	}
	if spec.ID == "" {
		s.idSeq++
		spec.ID = fmt.Sprintf("j-%06d", s.idSeq)
	} else if err := validateJobID(spec.ID); err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return spec, nil
}

// validateJobID enforces the same grammar as checkpoint namespaces: job
// IDs become directory names (artifacts, checkpoints), so anything that
// could traverse paths is rejected rather than sanitized.
func validateJobID(id string) error {
	if id == "" || id == "." || id == ".." {
		return fmt.Errorf("bad job id %q", id)
	}
	if len(id) > 128 {
		return fmt.Errorf("job id longer than 128 bytes")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return fmt.Errorf("bad job id %q: character %q not allowed", id, r)
		}
	}
	return nil
}

// Submit admits a job or rejects it with an admission error. On success
// the returned status is the job's initial queued snapshot (carrying the
// assigned ID).
func (s *Scheduler) Submit(spec JobSpec) (JobStatus, error) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	spec, err := s.validateSpecLocked(spec)
	if err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	if _, dup := s.jobs[spec.ID]; dup {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %s", ErrDuplicateID, spec.ID)
	}
	if s.queuedTotal >= s.cfg.QueueCap {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, s.cfg.QueueCap)
	}
	tq := s.tenants[spec.Tenant]
	if tq == nil {
		tq = &tenantQ{}
		s.tenants[spec.Tenant] = tq
		s.tenantNames = append(s.tenantNames, spec.Tenant)
	}
	if len(tq.queued) >= s.cfg.TenantQueueCap {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: tenant %s has %d jobs queued", ErrTenantQuota, spec.Tenant, len(tq.queued))
	}
	j := newJob(spec, time.Now())
	s.jobs[spec.ID] = j
	s.order = append(s.order, spec.ID)
	s.admitted++
	tq.queued = append(tq.queued, j)
	s.queuedTotal++
	st := j.statusLocked()
	s.mu.Unlock()
	s.cfg.Logf("sched: admitted %s (tenant %s, program %s, width %d)", spec.ID, spec.Tenant, spec.Program, spec.Width)
	s.kickNow()
	return st, nil
}

// enqueueLocked puts a non-terminal job back in its tenant's queue (retry
// or requeue path).
func (s *Scheduler) enqueueLocked(j *job) {
	j.state = StateQueued
	j.skipsSince = time.Time{}
	j.resetRun()
	tq := s.tenants[j.spec.Tenant]
	tq.queued = append(tq.queued, j)
	s.queuedTotal++
}

// removeQueuedLocked drops a queued job from its tenant queue; reports
// whether it was found.
func (s *Scheduler) removeQueuedLocked(j *job) bool {
	tq := s.tenants[j.spec.Tenant]
	for i, q := range tq.queued {
		if q == j {
			tq.queued = append(tq.queued[:i], tq.queued[i+1:]...)
			s.queuedTotal--
			return true
		}
	}
	return false
}

// tryPlaceLocked finds a placement for the job, shrinking an elastic job
// when the healthy cluster is smaller than its full width. ok false means
// "not now" — either busy (wait in queue) or degraded below the job's
// floor (wait for a revive).
func (s *Scheduler) tryPlaceLocked(j *job) (int, []int, bool) {
	width := j.spec.Width
	free, total := s.capacityLocked()
	if width > total && j.spec.MinWidth > 0 && total >= j.spec.MinWidth {
		width = total // degraded cluster: run shrunk rather than wait
	}
	if width > total || width > free {
		return 0, nil, false
	}
	p, ok := s.placeLocked(width)
	return width, p, ok
}

// dispatchLocked is one scheduling pass: place as many queued jobs as
// capacity, quotas, fairness, and the starvation guard allow.
func (s *Scheduler) dispatchLocked() {
	if s.closed {
		return
	}
	now := time.Now()
	for {
		if starving := s.starvingLocked(now); starving != nil {
			// The guard: the oldest capacity-blocked job has waited past
			// StarveAfter. Stop backfilling around it — place it or place
			// nothing, so the cluster drains down to a hole it fits.
			tq := s.tenants[starving.spec.Tenant]
			if s.cfg.TenantSlots > 0 && tq.running >= s.cfg.TenantSlots {
				// Its own quota blocks it; hoarding capacity would help
				// nobody. Let it age without starving the cluster.
				starving.skipsSince = now
				continue
			}
			width, placement, ok := s.tryPlaceLocked(starving)
			if !ok {
				return
			}
			s.removeQueuedLocked(starving)
			s.startLocked(starving, width, placement)
			continue
		}
		if !s.placeOneLocked(now) {
			return
		}
	}
}

// starvingLocked finds the longest-starved queued job, if any has aged
// past the guard.
func (s *Scheduler) starvingLocked(now time.Time) *job {
	// Walk tenants in registration order, not map order: jobs skipped in
	// the same dispatch pass carry the same skipsSince, and the tiebreak
	// must not depend on map iteration.
	var oldest *job
	for _, name := range s.tenantNames {
		tq := s.tenants[name]
		for _, j := range tq.queued {
			if j.skipsSince.IsZero() || now.Sub(j.skipsSince) < s.cfg.StarveAfter {
				continue
			}
			if oldest == nil || j.skipsSince.Before(oldest.skipsSince) {
				oldest = j
			}
		}
	}
	return oldest
}

// placeOneLocked starts at most one job: tenants are visited round-robin
// for fairness, and within a tenant the queue is walked in order — jobs
// behind a capacity-blocked head may backfill into the holes it cannot
// use. Reports whether anything was placed.
func (s *Scheduler) placeOneLocked(now time.Time) bool {
	nt := len(s.tenantNames)
	for i := 0; i < nt; i++ {
		name := s.tenantNames[(s.rrNext+i)%nt]
		tq := s.tenants[name]
		if s.cfg.TenantSlots > 0 && tq.running >= s.cfg.TenantSlots {
			continue
		}
		for _, j := range tq.queued {
			width, placement, ok := s.tryPlaceLocked(j)
			if !ok {
				if j.skipsSince.IsZero() {
					// First skip: start the starvation clock, and make
					// sure a dispatch fires when it expires even if no
					// other event does.
					j.skipsSince = now
					time.AfterFunc(s.cfg.StarveAfter+time.Millisecond, s.kickNow)
				}
				continue // backfill: try the jobs behind it
			}
			s.removeQueuedLocked(j)
			s.startLocked(j, width, placement)
			// Resume after the served tenant. Not reduced mod nt: a tenant
			// registered before the next pass lands at index nt, and
			// wrapping now would hand the next slot back to this tenant.
			s.rrNext = (s.rrNext+i)%nt + 1
			return true
		}
	}
	return false
}

// Cancel cancels a job: dequeued if queued or retrying, revoked (world
// abort) and reaped if running. Terminal jobs return ErrTerminal with
// their final status.
func (s *Scheduler) Cancel(id, reason string) (JobStatus, error) {
	if reason == "" {
		reason = "canceled by client"
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	var interruptCause error
	commit := false
	switch j.state {
	case StateQueued:
		s.removeQueuedLocked(j)
		s.finishLocked(j, StateCanceled, fmt.Sprintf("canceled while queued: %s", reason))
		commit = true
	case StateRetrying:
		// The backoff timer will find the job terminal and stand down.
		s.finishLocked(j, StateCanceled, fmt.Sprintf("canceled while waiting to retry: %s", reason))
		commit = true
	case StateRunning:
		interruptCause = fmt.Errorf("sched: job %s: %s: %w", id, reason, errCancelRun)
	default:
		st := j.statusLocked()
		s.mu.Unlock()
		return st, fmt.Errorf("%w: %s is %s", ErrTerminal, id, st.State)
	}
	st := j.statusLocked()
	s.mu.Unlock()
	if interruptCause != nil {
		j.interrupt(interruptCause)
	}
	if commit {
		s.commitArtifact(j)
		s.kickNow()
	}
	return st, nil
}

// finishLocked moves a job to a terminal state and stamps the postmortem
// line into its history.
func (s *Scheduler) finishLocked(j *job, state State, note string) {
	j.state = state
	j.finished = time.Now()
	if note != "" {
		j.lastErr = note
		j.history = append(j.history, fmt.Sprintf("attempt %d: %s", j.attempts, note))
	}
	s.cfg.Logf("sched: job %s -> %s (%s)", j.spec.ID, state, note)
}

// Status returns one job's snapshot.
func (s *Scheduler) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.statusLocked(), nil
}

// Logs returns a job's captured output.
func (s *Scheduler) Logs(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.out.Snapshot(), nil
}

// List returns job snapshots in submission order, optionally filtered by
// tenant and/or state name.
func (s *Scheduler) List(tenant, state string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobStatus
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.spec.Tenant != tenant {
			continue
		}
		if state != "" && j.state.String() != state {
			continue
		}
		out = append(out, j.statusLocked())
	}
	return out
}

// Nodes returns the cluster view.
func (s *Scheduler) Nodes() []NodeStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeStatus, 0, len(s.nodes))
	for _, n := range s.nodes {
		out = append(out, NodeStatus{
			ID:            n.id,
			Hostname:      s.cfg.Platform.Hostname(n.id),
			Capacity:      n.cores,
			Used:          n.used,
			Healthy:       n.healthy,
			Draining:      n.draining,
			Beating:       n.beating,
			LastHeartbeat: n.lastBeat,
		})
	}
	return out
}

// Stats returns the counter snapshot.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Admitted: s.admitted,
		Failures: s.failures,
		Requeues: s.requeues,
		Nodes:    len(s.nodes),
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateRetrying:
			st.Retrying++
		case StateSucceeded:
			st.Succeeded++
		case StateCanceled:
			st.Canceled++
		case StateQuarantined:
			st.Quarantined++
		}
	}
	for _, n := range s.nodes {
		if n.healthy {
			st.HealthyNodes++
		}
		st.FreeSlots += n.free()
		if n.healthy && !n.draining {
			st.TotalSlots += n.cores
		}
	}
	return st
}

// KillNode is the chaos endpoint: the node dies now — heartbeats stop and
// every gang with a rank on it is evicted (requeued, not failed). The
// scheduler keeps admitting at reduced capacity.
func (s *Scheduler) KillNode(id int) error {
	s.mu.Lock()
	if id < 0 || id >= len(s.nodes) {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	jobs, causes := s.declareNodeDeadLocked(s.nodes[id], "killed by chaos endpoint")
	s.mu.Unlock()
	s.cfg.Logf("sched: node %d killed, evicting %d gang(s)", id, len(jobs))
	for i, j := range jobs {
		j.interrupt(causes[i])
	}
	s.kickNow()
	return nil
}

// SilenceNode is the heartbeat chaos knob: the node stops beating but its
// gangs keep running, exactly like a machine that dropped off the
// network. The monitor declares it dead after the grace window.
func (s *Scheduler) SilenceNode(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	s.nodes[id].beating = false
	return nil
}

// DrainNode stops new placements on the node; running gangs finish
// normally. The administrative half of graceful degradation.
func (s *Scheduler) DrainNode(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	s.nodes[id].draining = true
	return nil
}

// ReviveNode returns a dead, silenced, or draining node to service.
func (s *Scheduler) ReviveNode(id int) error {
	s.mu.Lock()
	if id < 0 || id >= len(s.nodes) {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n := s.nodes[id]
	n.healthy = true
	n.draining = false
	n.beating = true
	n.lastBeat = time.Now()
	s.mu.Unlock()
	s.kickNow()
	return nil
}

// Drain stops admissions and waits (up to timeout) for every job to reach
// a terminal state. It returns an error if jobs remain.
func (s *Scheduler) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		st := s.Stats()
		if st.Queued+st.Running+st.Retrying == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sched: drain timed out with %d queued, %d running, %d retrying",
				st.Queued, st.Running, st.Retrying)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close shuts the scheduler down: queued and retrying jobs are canceled,
// running gangs are revoked and reaped as canceled, and every background
// goroutine is joined before Close returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.draining = true
	var interrupts []*job
	var causes []error
	var commits []*job
	for _, id := range s.order {
		j := s.jobs[id]
		switch j.state {
		case StateQueued:
			s.removeQueuedLocked(j)
			s.finishLocked(j, StateCanceled, "canceled: scheduler shutdown")
			commits = append(commits, j)
		case StateRetrying:
			s.finishLocked(j, StateCanceled, "canceled: scheduler shutdown")
			commits = append(commits, j)
		case StateRunning:
			interrupts = append(interrupts, j)
			causes = append(causes, fmt.Errorf("sched: job %s: scheduler shutdown: %w", id, errCancelRun))
		}
	}
	s.mu.Unlock()
	for i, j := range interrupts {
		j.interrupt(causes[i])
	}
	for _, j := range commits {
		s.commitArtifact(j)
	}
	close(s.quit)
	s.wg.Wait()
}

// backoff computes the delay before a job's next attempt: exponential in
// its failure count with up to 50% seeded jitter, so a burst of failures
// does not re-dogpile the queue in lockstep.
func (s *Scheduler) backoff(failures int) time.Duration {
	d := s.cfg.RetryBase
	for i := 1; i < failures && d < s.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > s.cfg.RetryMax {
		d = s.cfg.RetryMax
	}
	s.rngMu.Lock()
	jitter := time.Duration(s.rng.Int63n(int64(d)/2 + 1))
	s.rngMu.Unlock()
	return d + jitter
}

// retryBudget resolves a job's circuit-breaker threshold.
func (s *Scheduler) retryBudget(spec JobSpec) int {
	switch {
	case spec.MaxRetries > 0:
		return spec.MaxRetries
	case spec.MaxRetries < 0:
		return 0
	default:
		return s.cfg.DefaultMaxRetries
	}
}

// sortedTenants is a test hook: the tenant ring in a stable order.
func (s *Scheduler) sortedTenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.tenantNames...)
	sort.Strings(out)
	return out
}

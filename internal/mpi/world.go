package mpi

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// World is one SPMD execution: np ranks sharing a transport. It corresponds
// to everything set up by MPI_Init across the job.
type World struct {
	np        int
	transport Transport
	boxes     []*mailbox // receive queues, indexed by world rank
	names     []string   // processor name per world rank
	gate      func(fn func())
	epoch     time.Time     // when the world initialized; Wtime's zero point
	typed     bool          // transport delivers typed payloads (the fast path)
	wire      bool          // transport raw-encodes typed payloads in Send (tcp, shm)
	deadline  time.Duration // per-operation receive budget; 0 = unbounded

	// Revoke state (see abort.go). abortedFlag is the hot-path gate: one
	// atomic load per send; the cause and the report serialization live
	// behind their own mutexes.
	abortedFlag atomic.Bool
	abortMu     sync.Mutex
	abortCause  error      // first rank-attributed failure; latched
	reportMu    sync.Mutex // serializes deadline reports (abort.go)

	// recov is non-nil under WithRecovery (recover.go); faults is the
	// installed fault injector, if any, consulted by the deadline machinery
	// to attribute stalls to injected kills.
	recov  *recoveryState
	faults *faultTransport

	// peerFailed, when set, is called once per rank recorded failed under
	// recovery: the shm transport uses it to reclaim the dead rank's
	// staging space and release blocked senders. peerRejoined is its
	// respawn counterpart: the shm transport pins the pair to a rejoined
	// rank onto the TCP fallback (the respawned process shares no segment).
	peerFailed   func(rank int)
	peerRejoined func(rank int)

	// nodeOf, when set by WithTopology, assigns each world rank to a
	// modeled node; hierMode selects whether collectives may use the
	// two-level hierarchical schedules over that assignment (see hier.go).
	// Without WithTopology the assignment is derived from names: ranks
	// sharing a processor name share a node.
	nodeOf   []int
	hierMode HierMode

	// One-sided state (win.go). winReg maps (ctx, window seq, world rank)
	// to the rank's exposed window memory on worlds where every rank shares
	// this process — the local transport's direct load/store path. shmT is
	// the rank's shm endpoint when the world runs on the shared-memory data
	// plane: windows there live in the mmap'd segment instead, and peers
	// reach them through published segment offsets.
	winReg sync.Map
	shmT   *shmTransport
}

// Option configures a Run.
type Option func(*config)

type config struct {
	names        []string
	latency      func(src, dst int) time.Duration
	linkCost     func(src, dst, bytes int)
	nodeOf       []int
	hierMode     HierMode
	gate         func(fn func())
	counter      *MessageCounter
	serializeAll bool
	deadline     time.Duration
	faults       *FaultPlan
	faultReport  *FaultReport
	recovery     bool
	respawn      bool                      // relaunch failed ranks into their old slots
	dialRetry    time.Duration             // JoinTCP dial budget; 0 = default, <0 = single attempt
	hubOpts      []HubOption               // consumed by RunTCP's internal hub
	wrap         func(Transport) Transport // test hook: outermost decoration

	faultT *faultTransport // set by wrapTransport; handed to the World
}

// wrapTransport applies configured decorations to a transport. The fault
// injector sits innermost — closest to delivery, so counters and test wraps
// observe the frames a program tried to send, faults and all.
func (c *config) wrapTransport(t Transport) Transport {
	if c.faults != nil {
		ft := newFaultTransport(t, c.faults, c.faultReport)
		c.faultT = ft
		t = ft
	}
	if c.counter != nil {
		t = &countingTransport{inner: t, mc: c.counter}
	}
	if c.wrap != nil {
		t = c.wrap(t)
	}
	return t
}

// typedWorld reports whether a world on the given (already wrapped)
// transport should use the zero-serialization fast path.
func (c *config) typedWorld(t Transport) bool {
	if c.serializeAll {
		return false
	}
	tc, ok := t.(typedCapable)
	return ok && tc.deliversTyped()
}

// wireWorld reports whether a world on the given (already wrapped) transport
// should hand raw-encodable typed payloads to Send uncopied (see
// wireCapable). WithSerialization disables it, the same ablation switch that
// disables the local fast path.
func (c *config) wireWorld(t Transport) bool {
	if c.serializeAll {
		return false
	}
	wc, ok := t.(wireCapable)
	return ok && wc.wiresTyped()
}

// WithProcessorNames assigns each world rank the processor (host) name it
// reports from ProcessorName. Missing entries fall back to the OS hostname.
// The cluster package uses this to place ranks on modeled nodes.
func WithProcessorNames(names []string) Option {
	return func(c *config) { c.names = names }
}

// WithLatency imposes an artificial delay on every message between a pair of
// world ranks, as computed by d. The cluster package uses this to model
// inter-node network cost on multi-node platforms.
func WithLatency(d func(src, dst int) time.Duration) Option {
	return func(c *config) { c.latency = d }
}

// WithLinkCost installs a byte-aware cost model consulted once per message
// on the local transport, with the sender and receiver world ranks and the
// payload size. Unlike WithLatency's fixed per-message delay, fn may block —
// the cluster package uses a per-link mutex held for bytes/bandwidth to
// model serialization on a shared inter-node link, which is exactly the
// contention hierarchical collectives exist to avoid. fn runs on a per-pair
// delivery goroutine, so it delays only messages of that sender/receiver
// pair (per-pair FIFO is preserved; unrelated traffic proceeds).
func WithLinkCost(fn func(src, dst, bytes int)) Option {
	return func(c *config) { c.linkCost = fn }
}

// WithTopology assigns world rank r to modeled node nodeOf[r], overriding
// the default derivation from processor names. The node ids need not be
// dense; ranks beyond len(nodeOf) fall on node 0. The cluster package's
// Launch passes its platform placement through this option, which is what
// lets collectives select the two-level hierarchical schedules
// automatically (see WithHierarchy).
func WithTopology(nodeOf []int) Option {
	return func(c *config) {
		c.nodeOf = append([]int(nil), nodeOf...)
	}
}

// WithHierarchy selects whether collectives may replace their flat
// algorithms with the two-level hierarchical schedules (hier.go). The
// default, HierAuto, enables them exactly when the topology says they pay:
// at least two nodes, at least one of which co-locates two ranks. HierOn
// forces them whenever the communicator spans more than one node; HierOff
// pins every collective to the flat algorithms (the ablation switch the
// hierbench comparison is built on).
func WithHierarchy(m HierMode) Option {
	return func(c *config) { c.hierMode = m }
}

// WithComputeGate installs a gate that every call to Comm.Compute runs
// under. The cluster package uses a counting semaphore sized to a platform's
// core count, so that (for example) four ranks on the paper's unicore Colab
// VM make progress but show no speedup.
func WithComputeGate(gate func(fn func())) Option {
	return func(c *config) { c.gate = gate }
}

// maxRespawnsPerRank bounds how many times the launcher relaunches one
// rank before giving up on it: a rank that dies deterministically on every
// attempt must eventually be abandoned to the shrink path rather than
// respawned forever.
const maxRespawnsPerRank = 3

// WithRespawn opts the world into respawn recovery (implies WithRecovery):
// a rank that fails is relaunched into its old slot — same rank number, at
// the original world width — and the survivors re-form through
// Comm.Restored instead of Shrink. The launcher (Run, RunTCP, RunShm, or
// mpirun -respawn) supervises the relaunching; each rank is retried at most
// maxRespawnsPerRank times. The respawned rank starts main from the
// beginning: its first operation fails with the retryable membership-changed
// error, which routes it into the program's recovery path (Restored +
// checkpoint restore), exactly like the survivors.
func WithRespawn() Option {
	return func(c *config) {
		c.recovery = true
		c.respawn = true
	}
}

// WithSerialization forces every message through the gob encode/decode
// path even on transports that could deliver typed payloads in memory.
// The benchmark harness uses it to measure what the fast path saves, and
// the parity suite uses it to prove the two paths are observationally
// identical; it costs real programs only speed.
func WithSerialization() Option {
	return func(c *config) { c.serializeAll = true }
}

// Run executes main as an SPMD program on np in-process ranks, one goroutine
// per rank, and returns after every rank's main has returned: the analogue
// of "mpirun -np N prog" on a single node.
//
// If any rank returns a non-nil error or panics, the world is revoked: the
// surviving ranks' blocked receives and in-flight collectives fail with
// ErrWorldAborted instead of hanging, and Run returns the first failure,
// rank-attributed and wrapped so that errors.Is matches both
// ErrWorldAborted and the originating rank's own error.
func Run(np int, main func(c *Comm) error, opts ...Option) error {
	if np < 1 {
		return fmt.Errorf("mpi: Run needs at least 1 process, got %d", np)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}

	t := newLocalTransport(np)
	t.latency = cfg.latency
	t.linkCost = cfg.linkCost

	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "localhost"
	}
	names := make([]string, np)
	for i := range names {
		if i < len(cfg.names) && cfg.names[i] != "" {
			names[i] = cfg.names[i]
		} else {
			names[i] = host
		}
	}

	transport := cfg.wrapTransport(t)
	w := &World{
		np:        np,
		transport: transport,
		boxes:     t.boxes,
		names:     names,
		gate:      cfg.gate,
		epoch:     time.Now(),
		typed:     cfg.typedWorld(transport),
		deadline:  cfg.deadline,
		faults:    cfg.faultT,
		nodeOf:    cfg.nodeOf,
		hierMode:  cfg.hierMode,
	}
	if cfg.recovery {
		if np > maxRecoveryRanks {
			return fmt.Errorf("mpi: WithRecovery supports at most %d ranks, got %d", maxRecoveryRanks, np)
		}
		w.recov = newRecoveryState(w)
		w.recov.engine = newAgreeEngine(w.recov)
	}
	defer t.Close()

	errs := make([]error, np)
	var wg sync.WaitGroup
	wg.Add(np)
	for rank := 0; rank < np; rank++ {
		go func(rank int) {
			defer wg.Done()
			err := runRank(w, rank, main)
			if cfg.respawn {
				// Respawn supervision: record the failure (interrupting the
				// survivors), clear any injected kill, restore the rank to
				// the membership, and relaunch main into the same slot. The
				// relaunched rank's first operation routes it into the
				// program's Restored + checkpoint-restore path.
				for attempt := 1; err != nil && !errors.Is(err, ErrWorldAborted) &&
					attempt <= maxRespawnsPerRank; attempt++ {
					w.rankFailed(rank, err)
					if w.abortErr() != nil {
						break
					}
					if w.faults != nil {
						w.faults.revive(rank)
					}
					w.rankRejoined(rank, -1)
					err = runRank(w, rank, main)
				}
			}
			if err == nil {
				return
			}
			errs[rank] = err
			if errors.Is(err, ErrWorldAborted) {
				// Victims of the revoke do not re-abort: the cause is
				// already latched, and they must never displace the
				// originating error.
				return
			}
			if w.recov != nil {
				// Recovery mode: a failed rank is recorded, survivors are
				// interrupted with a retryable error, and the world lives on.
				w.rankFailed(rank, err)
				return
			}
			w.abort(err)
		}(rank)
	}
	wg.Wait()
	// Recovery verdict: the run succeeded if the world was never revoked
	// and at least one rank completed — the survivors carried the
	// computation to the end; the failed ranks are the expected cost.
	if w.recov != nil && w.abortErr() == nil {
		for _, e := range errs {
			if e == nil {
				return nil
			}
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
	}
	// Report the lowest-ranked originator, deterministically: the abort
	// latch is first-wins (a race when several ranks fail independently),
	// but errs remembers every rank's own failure, and victims of the
	// revoke are distinguishable by the ErrWorldAborted identity.
	for _, e := range errs {
		if e != nil && !errors.Is(e, ErrWorldAborted) {
			return &abortError{cause: e}
		}
	}
	if err := w.abortErr(); err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runRank executes one rank's main, converting a panic to a rank-attributed
// error the same way a returned error is wrapped. Shared by Run and JoinTCP
// so a panic is observationally identical across transports.
func runRank(w *World, rank int, main func(c *Comm) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
		}
	}()
	if merr := main(w.comm(rank)); merr != nil {
		return fmt.Errorf("mpi: rank %d: %w", rank, merr)
	}
	return nil
}

// comm builds the world communicator view for one rank.
func (w *World) comm(rank int) *Comm {
	ranks := make([]int, w.np)
	for i := range ranks {
		ranks[i] = i
	}
	return &Comm{
		world:   w,
		ctx:     0,
		rank:    rank,
		ranks:   ranks,
		nextCtx: 1,
	}
}

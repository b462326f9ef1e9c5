package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/mpi"
)

// The -mpibench mode times the message-transport fast path the way a
// regression harness wants it: fixed-shape microbenchmarks, one JSON file,
// before/after comparable across commits. The "gob" numbers force every
// message through the wire encoding (mpi.WithSerialization), so fast vs gob
// is exactly what the zero-serialization local delivery saves.

// mpiBenchReport is the schema of BENCH_mpi.json.
type mpiBenchReport struct {
	// NsPerMessage: local []float64 ping-pong (128 elements), halved round
	// trips, through each payload representation.
	NsPerMessage struct {
		Fast float64 `json:"fast"`
		Gob  float64 `json:"gob"`
		// Speedup = Gob/Fast; the acceptance floor for the fast path is 3.
		Speedup float64 `json:"speedup"`
		// Guarded re-times the fast ping-pong with the failure machinery
		// installed but idle: an empty fault plan plus the abort bookkeeping
		// every send now performs. GuardOverheadPct = (Guarded-Fast)/Fast,
		// pinned at <= 2% — the failure model must be free when unused.
		Guarded          float64 `json:"guarded"`
		GuardOverheadPct float64 `json:"guard_overhead_pct"`
	} `json:"ns_per_message"`
	// CollectiveNs: latency per call at np=8. Barrier is reported for both
	// algorithms twice: with free messages (where the dissemination pattern's
	// extra messages cost more than its shorter critical path saves) and
	// under 200us simulated pair latency (where the O(log n) critical path
	// dominates and dissemination wins).
	CollectiveNs struct {
		BarrierDissemination        float64 `json:"barrier_dissemination"`
		BarrierLinear               float64 `json:"barrier_linear"`
		BarrierDisseminationLatency float64 `json:"barrier_dissemination_200us"`
		BarrierLinearLatency        float64 `json:"barrier_linear_200us"`
		AllreduceFast               float64 `json:"allreduce_fast"`
		AllreduceGob                float64 `json:"allreduce_gob"`
	} `json:"collective_ns_np8"`
	// Recovery: survive-and-continue costs. InertNs re-times the fast
	// ping-pong under WithRecovery with no failures (pinned <= 2% over Fast
	// by scripts/check.sh); CheckpointSaveNs is one collective 4-rank
	// ckpt.Save of 16 KiB shards; TimeToRecoverNs is a survivor's full
	// detect -> Revoke -> Shrink -> first-barrier cycle after a rank dies.
	Recovery struct {
		InertNs          float64 `json:"inert_ns_per_message"`
		InertOverheadPct float64 `json:"inert_overhead_pct"`
		CheckpointSaveNs float64 `json:"checkpoint_save_ns_np4"`
		TimeToRecoverNs  struct {
			NP2 float64 `json:"np2"`
			NP4 float64 `json:"np4"`
			NP8 float64 `json:"np8"`
		} `json:"time_to_recover_ns"`
		// TimeToRespawnNs is the respawn-mode counterpart: a survivor's full
		// detect -> Restored (victim relaunch + re-admission + membership
		// agreement) -> first-completed-round cycle under WithRespawn, after
		// which the world is back at its ORIGINAL width.
		TimeToRespawnNs struct {
			NP2 float64 `json:"np2"`
			NP4 float64 `json:"np4"`
			NP8 float64 `json:"np8"`
		} `json:"time_to_respawn_ns"`
	} `json:"recovery"`
	// Session is the resilient-session overhead section: a 1 MiB []byte
	// ping-pong over the real TCP transport with sessions off (plain
	// RunTCP: a broken connection fails the rank) vs on (HubSuspicion: it
	// is redialed and resumed). The overhead is what arming crash-survivable
	// connections costs on the data plane; scripts/check.sh pins it at
	// <= 5% via -sessionpin.
	Session struct {
		OffNs       float64 `json:"sessions_off_ns_per_message"`
		OnNs        float64 `json:"sessions_on_ns_per_message"`
		OverheadPct float64 `json:"session_overhead_pct"`
	} `json:"session_1mib_tcp"`
	// Vector is the large-payload data-plane section, written by -vecbench
	// (vecbench.go) and preserved across -mpibench reruns.
	Vector *vecBenchReport `json:"vector,omitempty"`
	// ShmTransport is the cross-process shared-memory data-plane section,
	// written by -shmtbench (shmtbench.go) and preserved likewise.
	ShmTransport *shmtBenchReport `json:"shm_transport,omitempty"`
	// Hier is the topology-aware collective section, written by -hierbench
	// (hierbench.go) and preserved likewise.
	Hier *hierBenchReport `json:"hier,omitempty"`
	// Sched is the gang-scheduler load-test section, written by -schedbench
	// (schedbench.go) and preserved likewise.
	Sched *schedBenchReport `json:"sched,omitempty"`
	// RMA is the one-sided/alltoallv section, written by -rmabench
	// (rmabench.go) and preserved likewise.
	RMA        *rmaBenchReport `json:"rma,omitempty"`
	Iterations int             `json:"iterations"`
	NP         int             `json:"np"`
	Timestamp  string          `json:"timestamp"`
}

// runMPIBench executes the microbenchmarks and writes the report to path.
func runMPIBench(path string, iters int) error {
	if iters < 1 {
		return fmt.Errorf("mpibench-iters must be >= 1, got %d", iters)
	}
	// Start from any existing report so sections other modes own (the
	// vector data-plane sweep) survive a transport-only rerun.
	r := loadMPIReport(path)
	r.Iterations = iters
	r.NP = 8
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)

	// Warm up the runtime (scheduler, allocator, gob type registry) before
	// the first timed run, so fast-vs-guarded measures the machinery, not
	// which configuration happened to run first.
	if _, err := timePingPong(iters / 4); err != nil {
		return err
	}
	// The four ping-pong configurations are interleaved across rounds and
	// reported as per-series minima: a one-shot measurement on a loaded
	// machine regularly reported the guarded or inert world as *faster*
	// than the plain one (negative overheads of ~10%), which is scheduler
	// noise, not physics. Minima over interleaved rounds converge to each
	// configuration's true floor.
	const pingRounds = 5
	fast, gob, guarded, inert := -1.0, -1.0, -1.0, -1.0
	minIn := func(cur float64, opts ...mpi.Option) (float64, error) {
		v, err := timePingPong(iters, opts...)
		if err != nil {
			return cur, err
		}
		if cur < 0 || v < cur {
			return v, nil
		}
		return cur, nil
	}
	var err error
	for round := 0; round < pingRounds; round++ {
		if fast, err = minIn(fast); err != nil {
			return err
		}
		if gob, err = minIn(gob, mpi.WithSerialization()); err != nil {
			return err
		}
		if guarded, err = minIn(guarded, mpi.WithFaults(mpi.FaultPlan{})); err != nil {
			return err
		}
		if inert, err = minIn(inert, mpi.WithRecovery()); err != nil {
			return err
		}
	}
	r.NsPerMessage.Fast = fast
	r.NsPerMessage.Gob = gob
	r.NsPerMessage.Guarded = guarded
	if fast > 0 {
		r.NsPerMessage.Speedup = gob / fast
		r.NsPerMessage.GuardOverheadPct = (guarded - fast) / fast * 100
	}

	// Collectives run fewer iterations: each call involves 8 ranks.
	ci := iters / 10
	if ci < 100 {
		ci = 100
	}
	barrier := func(c *mpi.Comm) error { return c.Barrier() }
	linear := func(c *mpi.Comm) error { return c.BarrierWith(mpi.BarrierLinear) }
	if r.CollectiveNs.BarrierDissemination, err = timeCollective(8, ci, barrier); err != nil {
		return err
	}
	if r.CollectiveNs.BarrierLinear, err = timeCollective(8, ci, linear); err != nil {
		return err
	}
	// Under latency the per-call cost is milliseconds, so a handful of
	// iterations suffices to separate log2(8)=3 rounds from 2*(8-1)=14
	// sequential hops through the root.
	lat := func(src, dst int) time.Duration { return 200 * time.Microsecond }
	if r.CollectiveNs.BarrierDisseminationLatency, err = timeCollective(8, 20, barrier, mpi.WithLatency(lat)); err != nil {
		return err
	}
	if r.CollectiveNs.BarrierLinearLatency, err = timeCollective(8, 20, linear, mpi.WithLatency(lat)); err != nil {
		return err
	}
	allreduce := func(c *mpi.Comm) error {
		_, err := mpi.Allreduce(c, float64(c.Rank()), mpi.Combine[float64](mpi.Sum))
		return err
	}
	if r.CollectiveNs.AllreduceFast, err = timeCollective(8, ci, allreduce); err != nil {
		return err
	}
	if r.CollectiveNs.AllreduceGob, err = timeCollective(8, ci, allreduce, mpi.WithSerialization()); err != nil {
		return err
	}

	if err := benchRecovery(&r, iters, fast, inert); err != nil {
		return err
	}
	if err := benchSession(&r, iters); err != nil {
		return err
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("MPI transport microbenchmarks (np=%d, %d iterations)\n\n", r.NP, iters)
	fmt.Printf("  ping-pong []float64 x128:  fast %8.0f ns/msg   gob %8.0f ns/msg   (%.1fx)\n",
		r.NsPerMessage.Fast, r.NsPerMessage.Gob, r.NsPerMessage.Speedup)
	fmt.Printf("  idle failure machinery:    guarded %5.0f ns/msg  overhead %+.2f%%\n",
		r.NsPerMessage.Guarded, r.NsPerMessage.GuardOverheadPct)
	fmt.Printf("  barrier np=8 (free msgs):  dissemination %8.0f ns   linear %8.0f ns\n",
		r.CollectiveNs.BarrierDissemination, r.CollectiveNs.BarrierLinear)
	fmt.Printf("  barrier np=8 (200us/msg):  dissemination %8.0f ns   linear %8.0f ns\n",
		r.CollectiveNs.BarrierDisseminationLatency, r.CollectiveNs.BarrierLinearLatency)
	fmt.Printf("  allreduce np=8:            fast %8.0f ns        gob %8.0f ns\n",
		r.CollectiveNs.AllreduceFast, r.CollectiveNs.AllreduceGob)
	fmt.Printf("  inert recovery machinery:  %8.0f ns/msg  overhead %+.2f%%\n",
		r.Recovery.InertNs, r.Recovery.InertOverheadPct)
	fmt.Printf("  checkpoint save np=4:      %8.0f ns (16 KiB/rank)\n", r.Recovery.CheckpointSaveNs)
	fmt.Printf("  time to recover:           np=2 %8.0f ns   np=4 %8.0f ns   np=8 %8.0f ns\n",
		r.Recovery.TimeToRecoverNs.NP2, r.Recovery.TimeToRecoverNs.NP4, r.Recovery.TimeToRecoverNs.NP8)
	fmt.Printf("  time to respawn:           np=2 %8.0f ns   np=4 %8.0f ns   np=8 %8.0f ns\n",
		r.Recovery.TimeToRespawnNs.NP2, r.Recovery.TimeToRespawnNs.NP4, r.Recovery.TimeToRespawnNs.NP8)
	fmt.Printf("  session 1MiB tcp:          off %7.0f ns/msg   on %8.0f ns/msg   overhead %+.2f%%\n",
		r.Session.OffNs, r.Session.OnNs, r.Session.OverheadPct)
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// timePingPong reports nanoseconds per one-way message for a rank-0/rank-1
// []float64 ping-pong, i.e. half the round-trip time.
func timePingPong(iters int, opts ...mpi.Option) (float64, error) {
	payload := make([]float64, 128)
	for i := range payload {
		payload[i] = float64(i)
	}
	var elapsed time.Duration
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			var got []float64
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := c.Send(1, 0, payload); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, &got); err != nil {
					return err
				}
			}
			elapsed = time.Since(start)
			return c.Send(1, 1, true)
		}
		for {
			st, err := c.Probe(0, mpi.AnyTag)
			if err != nil {
				return err
			}
			if st.Tag == 1 {
				_, err := c.Recv(0, 1, nil)
				return err
			}
			var in []float64
			if _, err := c.Recv(0, 0, &in); err != nil {
				return err
			}
			if err := c.Send(0, 0, in); err != nil {
				return err
			}
		}
	}, opts...)
	if err != nil {
		return 0, err
	}
	// Each iteration is two messages (there and back).
	return float64(elapsed.Nanoseconds()) / float64(2*iters), nil
}

// timeCollective reports nanoseconds per collective call at the given world
// size, timed on rank 0; collectives synchronize the ranks, so rank 0's
// clock sees the steady-state cost.
func timeCollective(np, iters int, op func(c *mpi.Comm) error, opts ...mpi.Option) (float64, error) {
	var elapsed time.Duration
	err := mpi.Run(np, func(c *mpi.Comm) error {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(c); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
		return nil
	}, opts...)
	if err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), nil
}

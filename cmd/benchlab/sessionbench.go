package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/mpi"
)

// Session-overhead microbenchmark: what arming resilient sessions
// (HubSuspicion: a broken connection is redialed and resumed inside a grace
// window instead of failing the rank) costs over a plain RunTCP world on the
// path where it is most visible — a large payload over the real TCP
// transport. Both worlds speak the one wire (sequence numbers, replay
// buffer, CRC32C); the switch decides what a broken connection means. The
// pre-merge gate pins the overhead at <= 5% via -sessionpin: turning
// resilience on must stay close to free.

// sessionPayloadBytes is the ping-pong payload: 1 MiB, the acceptance
// pin's reference size, comfortably above the raw-frame streaming
// threshold so the measurement includes the streamed-frame CRC path.
const sessionPayloadBytes = 1 << 20

// sessionIters derives a round's iteration count from -mpibench-iters:
// 1 MiB round trips cost ~1ms each, so run two orders of magnitude fewer
// than the 1 KiB ping-pongs.
func sessionIters(iters int) int {
	n := iters / 200
	if n < 25 {
		n = 25
	}
	return n
}

// timePingPongTCP reports nanoseconds per one-way 1 MiB message between two
// ranks of a real loopback-TCP world (hub and all), i.e. half the measured
// round-trip time.
func timePingPongTCP(iters int, opts ...mpi.Option) (float64, error) {
	payload := make([]byte, sessionPayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	var elapsed time.Duration
	err := mpi.RunTCP(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			var got []byte
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
			var in []byte
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

// sessionPinPct is the acceptance pin: a world with sessions armed may cost
// at most this much over a plain world on the 1 MiB TCP ping-pong.
const sessionPinPct = 5.0

// sessionGrace is the suspicion window the sessions-on world arms. No
// connection breaks during the benchmark; the window only has to be set.
const sessionGrace = 5 * time.Second

// measureSessionFloor interleaves best-of-N 1 MiB TCP ping-pongs with
// sessions off (plain RunTCP) and on (HubSuspicion) and returns each
// configuration's floor plus the overhead percentage. More rounds are
// sampled while the delta is above the pin — extra minima can only shrink
// both sides, so only a genuine overhead keeps the gap open through the cap.
func measureSessionFloor(iters int) (off, on, pct float64, err error) {
	const minRounds, maxRounds = 3, 10
	si := sessionIters(iters)
	// Settle the heap first: when this runs after the allocation-heavy gob
	// benchmarks (-mpibench runs every section in one process), leftover
	// garbage otherwise pays its collection cost inside the timed rounds.
	runtime.GC()
	if _, err = timePingPongTCP(si / 2); err != nil { // warmup
		return 0, 0, 0, err
	}
	off, on = -1.0, -1.0
	for round := 0; round < maxRounds; round++ {
		a, aerr := timePingPongTCP(si)
		if aerr != nil {
			return 0, 0, 0, aerr
		}
		b, berr := timePingPongTCP(si, mpi.WithHubOptions(mpi.HubSuspicion(sessionGrace)))
		if berr != nil {
			return 0, 0, 0, berr
		}
		if off < 0 || a < off {
			off = a
		}
		if on < 0 || b < on {
			on = b
		}
		pct = (on - off) / off * 100
		if round >= minRounds-1 && pct <= sessionPinPct {
			break
		}
	}
	return off, on, pct, nil
}

// benchSession fills the report's Session section with the converged
// interleaved-minima floors, the same numbers -sessionpin gates on.
func benchSession(r *mpiBenchReport, iters int) error {
	off, on, pct, err := measureSessionFloor(iters)
	if err != nil {
		return err
	}
	r.Session.OffNs = off
	r.Session.OnNs = on
	r.Session.OverheadPct = pct
	return nil
}

// runSessionPin is the pre-merge gate's session-overhead check: fail if
// arming sessions costs more than 5% on the 1 MiB TCP ping-pong.
func runSessionPin(iters int) error {
	off, on, pct, err := measureSessionFloor(iters)
	if err != nil {
		return err
	}
	fmt.Printf("session pin: 1 MiB tcp ping-pong, sessions off %.0f ns/msg, sessions on %.0f ns/msg, overhead %+.2f%% (pin <= %.0f%%)\n",
		off, on, pct, sessionPinPct)
	if pct > sessionPinPct {
		return fmt.Errorf("session overhead %.2f%% exceeds the %.0f%% pin", pct, sessionPinPct)
	}
	return nil
}

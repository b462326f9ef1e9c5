package mpi

import (
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

var errDeliberate = errors.New("deliberate worker failure")

// TestHubSurvivesWorkerCrash: a worker that drops its connection without
// reporting done must fail the job cleanly rather than hang it.
func TestHubSurvivesWorkerCrash(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// Worker 0 joins properly but blocks waiting for a message that will
	// never come; the teardown after the crash must unblock it.
	done0 := make(chan error, 1)
	go func() {
		done0 <- JoinTCP(hub.Addr(), 0, 2, func(c *Comm) error {
			_, _ = c.Recv(1, 0, nil) // shutdown is the expected outcome
			return nil
		})
	}()

	// "Worker 1" handshakes and then crashes (closes without done). Waiting
	// for the start frame proves the hub admitted the rank — deterministic,
	// unlike a sleep — so the close below is unambiguously a post-admission
	// crash rather than a failed handshake.
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(conn).Encode(hello{Rank: 1, Wire: wireVersion}); err != nil {
		t.Fatal(err)
	}
	start, _, err := newWireReader(conn).readFrame()
	if err != nil {
		t.Fatalf("reading start frame: %v", err)
	}
	if start.Tag != tagStart {
		t.Fatalf("first frame tag = %d, want start (%d)", start.Tag, tagStart)
	}
	conn.Close()

	if err := hub.Wait(); err == nil {
		t.Fatal("hub.Wait reported success after a worker crash")
	} else if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("hub error %v does not identify the crashed rank", err)
	}
	select {
	case <-done0:
		// Worker 0 was unblocked by the teardown.
	case <-time.After(5 * time.Second):
		t.Fatal("surviving worker still blocked after hub failure")
	}
}

// TestRunTCPWorkerErrorSurfaces: one failing rank's error is what RunTCP
// reports, and the world still terminates.
func TestRunTCPWorkerErrorSurfaces(t *testing.T) {
	err := RunTCP(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return errDeliberate
		}
		return nil
	})
	if !errors.Is(err, errDeliberate) {
		t.Fatalf("err = %v, want the deliberate failure", err)
	}
}

// TestHubInvalidRankHandshake: a worker announcing an out-of-range rank
// fails the job with a clear error.
func TestHubInvalidRankHandshake(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(hello{Rank: 99}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Wait(); err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("hub.Wait = %v, want invalid-rank failure", err)
	}
}

// TestGarbageHandshake: random bytes instead of a hello must not wedge the
// hub.
func TestGarbageHandshake(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Close so the hub's decoder sees a definite end of stream (a gob
	// length prefix parsed out of garbage may otherwise keep it reading).
	conn.Close()
	if err := hub.Wait(); err == nil {
		t.Fatal("hub accepted a garbage handshake")
	}
}

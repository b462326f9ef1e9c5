package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunTCPRankAndSize(t *testing.T) {
	const np = 4
	err := RunTCP(np, func(c *Comm) error {
		if c.Size() != np {
			return fmt.Errorf("size = %d", c.Size())
		}
		if c.ProcessorName() == "" {
			return errors.New("empty processor name")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPSendRecv(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []string{"over", "the", "wire"})
		}
		var words []string
		st, err := c.Recv(0, 1, &words)
		if err != nil {
			return err
		}
		if st.Source != 0 || len(words) != 3 || words[2] != "wire" {
			return fmt.Errorf("st=%v words=%v", st, words)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPNonOvertaking(t *testing.T) {
	const n = 200
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			var got int
			if _, err := c.Recv(0, 0, &got); err != nil {
				return err
			}
			if got != i {
				return fmt.Errorf("tcp transport reordered: got %d at position %d", got, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPCollectives(t *testing.T) {
	const np = 5
	err := RunTCP(np, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := Bcast(c, c.Rank()+100, 2)
		if err != nil {
			return err
		}
		if got != 102 {
			return fmt.Errorf("bcast got %d", got)
		}
		sum, err := Allreduce(c, c.Rank(), Combine[int](Sum))
		if err != nil {
			return err
		}
		if sum != np*(np-1)/2 {
			return fmt.Errorf("allreduce got %d", sum)
		}
		all, err := Allgather(c, c.Rank()*2)
		if err != nil {
			return err
		}
		for i, v := range all {
			if v != 2*i {
				return fmt.Errorf("allgather[%d] = %d", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPSplit(t *testing.T) {
	const np = 6
	err := RunTCP(np, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%3, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 2 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		sum, err := Allreduce(sub, c.Rank(), Combine[int](Sum))
		if err != nil {
			return err
		}
		// The group with color m holds world ranks m and m+3.
		if want := (c.Rank()%3)*2 + 3; sum != want {
			return fmt.Errorf("rank %d sub sum %d, want %d", c.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPErrorPropagates(t *testing.T) {
	sentinel := errors.New("worker failed")
	err := RunTCP(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("RunTCP error = %v", err)
	}
}

func TestJoinTCPInvalidRank(t *testing.T) {
	if err := JoinTCP("127.0.0.1:1", 5, 3, nil); !errors.Is(err, ErrInvalidRank) {
		t.Fatalf("JoinTCP with rank 5 of 3 = %v", err)
	}
}

func TestStartHubRejectsZeroProcesses(t *testing.T) {
	if _, err := StartHub("127.0.0.1:0", 0); err == nil {
		t.Fatal("StartHub(np=0) succeeded")
	}
}

func TestHubRejectsDuplicateRank(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			done <- JoinTCP(hub.Addr(), 0, 2, func(c *Comm) error { return nil })
		}()
	}
	// Both workers claim rank 0: the hub must fail the job rather than run it.
	if err := hub.Wait(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("hub.Wait() = %v, want duplicate-rank failure", err)
	}
	<-done
	<-done
}

func TestHubAddrIsDialable(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if !strings.Contains(hub.Addr(), "127.0.0.1:") {
		t.Fatalf("Addr() = %q", hub.Addr())
	}
	if err := JoinTCP(hub.Addr(), 0, 1, func(c *Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := hub.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPMasterWorkerPattern(t *testing.T) {
	// The master-worker patternlet over the real network transport.
	const np = 4
	err := RunTCP(np, func(c *Comm) error {
		if c.Rank() == 0 {
			total := 0
			for i := 1; i < np; i++ {
				var v int
				if _, err := c.Recv(AnySource, 1, &v); err != nil {
					return err
				}
				total += v
			}
			if total != 1+2+3 {
				return fmt.Errorf("master total %d", total)
			}
			return nil
		}
		return c.Send(0, 1, c.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHubStartPrecedesRoutedFrames: the hub writes the start signal to one
// connection after another, and a rank that has started may send at once.
// The hook widens the window between start signals until the started rank
// has sent to every peer and its frames have had time to reach the hub's
// router. No rank may receive a routed frame before its own start signal
// ("unexpected frame before start signal").
func TestHubStartPrecedesRoutedFrames(t *testing.T) {
	const np = 3
	sent := make([]chan struct{}, np)
	for i := range sent {
		sent[i] = make(chan struct{})
	}
	hubStartHook = func(rank int) {
		if rank == np-1 {
			return // admitted last: its route loop starts after the broadcast
		}
		select {
		case <-sent[rank]:
		case <-time.After(5 * time.Second):
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer func() { hubStartHook = nil }()

	hub, err := StartHub("127.0.0.1:0", np, HubFormationTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	main := func(c *Comm) error {
		for peer := 0; peer < np; peer++ {
			if peer != c.Rank() {
				if err := c.Send(peer, 7, c.Rank()); err != nil {
					return err
				}
			}
		}
		close(sent[c.Rank()])
		for peer := 0; peer < np; peer++ {
			if peer == c.Rank() {
				continue
			}
			var got int
			if _, err := c.Recv(peer, 7, &got); err != nil {
				return err
			}
			if got != peer {
				return fmt.Errorf("rank %d got %d from rank %d", c.Rank(), got, peer)
			}
		}
		return nil
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for rank := 0; rank < np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = JoinTCP(hub.Addr(), rank, np, main)
		}(rank)
		// Admit the ranks in order, so every rank but the last has a
		// running route loop while the start signals go out.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			hub.mu.Lock()
			n := len(hub.conns)
			hub.mu.Unlock()
			if n == rank+1 || time.Now().After(deadline) {
				break
			}
		}
	}
	wg.Wait()
	if err := hub.Wait(); err != nil {
		t.Errorf("hub: %v", err)
	}
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

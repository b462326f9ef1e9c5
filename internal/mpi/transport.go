package mpi

import (
	"sync"
	"time"
)

// Transport moves frames between ranks. Implementations must preserve the
// order of frames sent from one rank to another (per-pair FIFO); the
// mailbox layer turns that into MPI's non-overtaking matching guarantee.
// Decorators stack on the base transport in wrapTransport's fixed order —
// fault injection innermost, then message counting, then the test hook —
// so counters observe what a program tried to send, faults included.
// Failure propagation does not pass through Send: a world abort poisons
// the receiving mailboxes directly (local) or travels as a control frame
// outside the user frame stream (TCP), so no fault rule can suppress it.
type Transport interface {
	// Send routes f to the mailbox of rank f.Dst. It must not block
	// indefinitely: sends in this runtime are buffered, as in MPI's
	// buffered mode (and as in mpi4py's default for small messages).
	Send(f frame) error
	// Close releases transport resources and unblocks pending receives.
	Close() error
}

// typedCapable is implemented by transports that can deliver a frame's
// typed in-memory payload (frame.Val) without serialization. Transports
// that lack the method — or report false — receive only gob-encoded frames
// from the send path. Wrapping transports (see countingTransport) must
// forward the capability of the transport they wrap.
type typedCapable interface {
	deliversTyped() bool
}

// wireCapable is implemented by transports that serialize a frame's typed
// payload (frame.Val) into the binary wire format *synchronously inside
// Send*. The distinction from typedCapable matters for copy semantics: a
// typed-delivering transport hands Val to another goroutine, so the send
// path must copy it first (typedPayload); a wire-capable transport has
// finished reading Val by the time Send returns, so the send path may pass
// the caller's slice uncopied — that is what makes a steady-state large
// send allocation-free. Wrapping transports forward the capability.
type wireCapable interface {
	wiresTyped() bool
}

// localTransport routes frames through in-memory mailboxes: all ranks are
// goroutines of one process, the analogue of running mpirun on one node.
//
// Without a cost model (latency and linkCost both nil — every plain world)
// Send appends straight to the destination mailbox: the zero-overhead fast
// path. With a model installed, Send enqueues onto a per-(sender, receiver)
// delivery queue drained by one goroutine per pair, which pays the modeled
// cost and then delivers. The single goroutine per ordered pair is what
// preserves per-pair FIFO (pinned by TestLatencyPreservesPerPairFIFO) while
// keeping Send properly buffered: a sender is never blocked by the modeled
// network, and — unlike the old sleep-on-the-sender's-goroutine scheme — a
// slow send to one rank no longer delays the sender's unrelated sends to
// other ranks, so modeled worlds can genuinely overlap communication with
// computation (the property the nonblocking collectives and the forestfire
// overlap benchmark measure).
type localTransport struct {
	boxes []*mailbox
	// latency, if set, is consulted on every delivery to simulate a fixed
	// per-message network delay between ranks (see WithLatency).
	latency func(src, dst int) time.Duration
	// linkCost, if set, is consulted with the payload size before each
	// delivery and may block — the hook the cluster package's contended
	// link model hangs bandwidth serialization on (see WithLinkCost).
	linkCost func(src, dst, bytes int)

	mu     sync.Mutex
	pairs  map[pairKey]*pairQueue
	closed bool
}

type pairKey struct{ src, dst int }

// pairQueue is one ordered (sender, receiver) pair's in-flight frames.
type pairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []frame
	closed bool
}

func newPairQueue() *pairQueue {
	p := &pairQueue{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pairQueue) enqueue(f frame) {
	p.mu.Lock()
	p.q = append(p.q, f)
	p.mu.Unlock()
	p.cond.Signal()
}

// next blocks for the pair's next frame; ok=false once the transport is
// closed (remaining frames are dropped — every rank's main has returned, so
// nothing can observe them, and paying their modeled cost would only delay
// goroutine exit).
func (p *pairQueue) next() (frame, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.q) == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return frame{}, false
	}
	f := p.q[0]
	p.q = p.q[1:]
	return f, true
}

func (p *pairQueue) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

func newLocalTransport(np int) *localTransport {
	t := &localTransport{boxes: make([]*mailbox, np)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

// deliversTyped: in-process mailboxes can hand typed values straight to the
// receiver, enabling the zero-serialization fast path.
func (t *localTransport) deliversTyped() bool { return true }

// Send delivers f to its destination mailbox — directly when no cost model
// is installed, via the pair's delivery goroutine otherwise.
func (t *localTransport) Send(f frame) error {
	if f.Dst < 0 || f.Dst >= len(t.boxes) {
		return ErrInvalidRank
	}
	if t.latency == nil && t.linkCost == nil {
		t.boxes[f.Dst].deliver(f)
		return nil
	}
	t.pair(f.WSrc, f.Dst).enqueue(f)
	return nil
}

// pair returns the (src, dst) delivery queue, creating it and its drainer
// goroutine on first use.
func (t *localTransport) pair(src, dst int) *pairQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pairs == nil {
		t.pairs = make(map[pairKey]*pairQueue)
	}
	k := pairKey{src, dst}
	p := t.pairs[k]
	if p == nil {
		p = newPairQueue()
		if t.closed {
			p.closed = true
		}
		t.pairs[k] = p
		go t.deliverPair(src, dst, p)
	}
	return p
}

// deliverPair drains one pair's queue in order, paying the modeled cost per
// frame before appending to the destination mailbox.
func (t *localTransport) deliverPair(src, dst int, p *pairQueue) {
	for {
		f, ok := p.next()
		if !ok {
			return
		}
		if t.linkCost != nil {
			t.linkCost(src, dst, f.payloadSize())
		}
		if t.latency != nil {
			if d := t.latency(src, dst); d > 0 {
				time.Sleep(d)
			}
		}
		t.boxes[dst].deliver(f)
	}
}

func (t *localTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	pairs := t.pairs
	t.mu.Unlock()
	for _, p := range pairs {
		p.close()
	}
	for _, b := range t.boxes {
		b.close()
	}
	return nil
}

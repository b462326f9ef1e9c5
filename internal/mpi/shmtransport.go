package mpi

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The shared-memory transport: a same-host data plane layered under the TCP
// hub's control plane. Ranks still dial the hub — formation, the start
// signal, abort/failed/agree/revoke broadcasts, and heartbeats all ride the
// existing TCP protocol — but user and collective frames between two ranks
// that mapped the same segment travel through that pair's SPSC ring instead
// of two socket hops, with an eager/rendezvous split:
//
//   - eager: payloads up to ShmTuning.EagerMax are copied straight into the
//     message ring record; the receiver copies them out into a pooled
//     buffer. Two copies, but both are ring-local and the record is gone as
//     soon as the consumer advances.
//   - rendezvous: larger payloads are staged once into the pair's
//     large-message region and announced by a small descriptor record. The
//     receiver hands the staged bytes to the matching Recv as a direct view
//     of shared memory — rawDecodeInto copies them into the user's slice
//     exactly once, extending the rawview zero-copy path across the process
//     boundary — and then frees the staging block.
//   - chunked: payloads too big for the large region stream through it in
//     rendezvous-sized chunks that the receiver reassembles (the documented
//     two-copy path for oversized messages).
//
// Per-destination routing is sticky: the first send to a rank checks the
// peer's attach word and pins the pair to shm or TCP-fallback for the
// world's lifetime, which preserves per-pair FIFO (a pair never interleaves
// two paths). Attach words are stable before any send because ranks attach
// before their hub hello and sends only start after the hub's start signal.
//
// Progress is futex-free polling with bounded spin-then-park: both blocked
// producers and the consumer goroutine spin with runtime.Gosched for
// ShmTuning.SpinIters iterations, then sleep with exponential backoff
// capped at ShmTuning.MaxPark — cheap when traffic is hot, near-idle when
// it is not, and safe on a single-core host because every spin yields.

// ShmTuning controls the shared-memory transport's protocol switches. Zero
// values select the defaults (except EagerMax, where 0 is meaningful: every
// payload takes the rendezvous path).
type ShmTuning struct {
	// EagerMax is the largest payload (bytes) copied eagerly into the
	// message ring; anything larger is staged in the large-message region
	// via rendezvous. It is additionally capped at a quarter of the ring so
	// several eager messages always fit in flight.
	EagerMax int
	// SpinIters bounds how many yield-spins a blocked producer or the poll
	// loop burns before parking.
	SpinIters int
	// MaxPark caps the parked sleep between polls once spinning gives up.
	MaxPark time.Duration
}

var defaultShmTuning = ShmTuning{
	EagerMax:  16 << 10,
	SpinIters: 256,
	MaxPark:   200 * time.Microsecond,
}

var shmTuningPtr atomic.Pointer[ShmTuning]

// SetShmTuning installs new shared-memory transport tuning and returns the
// previous values, so benchmarks and tests can restore them. Negative
// fields and a zero SpinIters/MaxPark select the defaults; EagerMax 0 is
// honored (pure rendezvous). Safe to call concurrently with running worlds;
// in-flight messages finish under whichever tuning they started with.
func SetShmTuning(t ShmTuning) ShmTuning {
	prev := shmTuningVal()
	if t.EagerMax < 0 {
		t.EagerMax = defaultShmTuning.EagerMax
	}
	if t.SpinIters <= 0 {
		t.SpinIters = defaultShmTuning.SpinIters
	}
	if t.MaxPark <= 0 {
		t.MaxPark = defaultShmTuning.MaxPark
	}
	shmTuningPtr.Store(&t)
	return prev
}

func shmTuningVal() ShmTuning {
	if p := shmTuningPtr.Load(); p != nil {
		return *p
	}
	return defaultShmTuning
}

// Message-ring record layout. Every record is 8-aligned and starts with its
// total size; a size of shmWrapMark tells the consumer the producer skipped
// to the ring's start.
//
//	size u32 | raw kind byte | flags byte | pad u16 |
//	tag i32 | src i32 | wsrc i32 | paylen u32 | ctx i64 | body...
//
// Body by flags: eager (0) carries the payload inline; shmFlagLarge carries
// the staged block's offset (u64); shmFlagChunkFirst carries total (u64) +
// block offset (u64); shmFlagChunkNext carries the block offset (u64).
const (
	shmRecHdrSize = 32
	shmBlkHdrSize = 16 // span u32 | state u32 | pad u64
	shmWrapMark   = uint32(0xFFFFFFFF)

	shmFlagLarge      byte = 1
	shmFlagChunkFirst byte = 2
	shmFlagChunkNext  byte = 4
)

// Large-region block states (the u32 at block offset +4).
const (
	shmBlkLive  uint32 = 0
	shmBlkFreed uint32 = 1
)

// errShmDrop tells a blocked sender to silently drop its frame: the peer
// failed or departed, which is exactly what the TCP hub does with frames
// for a torn-down destination. Send returns nil; failure surfaces through
// the control plane (abort broadcast or *RankFailedError), never through a
// racing send.
var errShmDrop = fmt.Errorf("mpi: shm frame dropped (peer gone)")

// Sticky per-pair routing decisions.
const (
	shmPairUndecided int32 = 0
	shmPairRing      int32 = 1
	shmPairTCP       int32 = 2
)

// shmSendPair is this rank's producer side of the (rank, dst) pair block.
// mu serializes this process's senders into the pair so records — and a
// chunked message's record sequence — stay contiguous; it is never shared
// across processes.
type shmSendPair struct {
	mu   sync.Mutex
	mode atomic.Int32
	dead atomic.Bool // peer failed under recovery: drop instead of block

	msgTail, msgHead     *atomic.Uint64
	largeTail, largeHead *atomic.Uint64
	ring, large          []byte
}

// shmRecvPair is this rank's consumer side of the (src, rank) pair block.
type shmRecvPair struct {
	msgTail, msgHead *atomic.Uint64
	ring, large      []byte
	asm              *shmAssembly // in-progress chunked reassembly
}

// shmAssembly accumulates a chunked message on the receive side.
type shmAssembly struct {
	f    frame
	kind byte
	buf  []byte
	fill int
}

// shmStats counts protocol decisions, for tests and diagnostics.
type shmStats struct {
	eager, rendezvous, chunked, fallback atomic.Uint64
}

// shmTransportStats is a point-in-time snapshot of one endpoint's counters.
type shmTransportStats struct {
	Eager, Rendezvous, Chunked, Fallback uint64
	// OutstandingLargeBytes is the total unreclaimed space across this
	// rank's outbound large-message regions after lazily advancing each
	// allocator over freed blocks — the number the reclamation tests drive
	// to zero.
	OutstandingLargeBytes uint64
	// OutstandingWinBytes is the unreclaimed space in this rank's window
	// heap: nonzero while RMA windows are live, back to zero once every
	// window is freed (win.go resets the bump allocator when the last one
	// goes).
	OutstandingWinBytes uint64
}

// shmTestHook, when set by a test, observes each shm endpoint as its world
// starts. Tests use it to reach the transport's counters from outside
// JoinShm.
var shmTestHook func(*shmTransport)

// shmTransport is one rank's endpoint: shm rings to attached same-host
// peers, the hub connection for control frames and TCP-fallback pairs.
type shmTransport struct {
	seg  *shmSegment
	rank int
	np   int
	tcp  *tcpTransport

	world atomic.Pointer[World]
	box   *mailbox

	out []shmSendPair
	in  []shmRecvPair

	stopped  atomic.Bool
	polling  atomic.Bool
	pollDone chan struct{}

	// liveBlocks counts rendezvous frames whose Data still views the
	// mapping (freed by frame.rel on receive). Close only unmaps when it
	// reaches zero; otherwise the mapping is leaked rather than risk a
	// released frame touching unmapped memory.
	liveBlocks atomic.Int64

	// Window-heap allocator (the one-sided layer, win.go). A rank bump-
	// allocates RMA window memory exclusively from its own heap region of
	// the segment and publishes offsets through an Allgather at window
	// creation, so the allocator state itself is process-private: no peer
	// ever allocates from this heap. winLive counts live windows; freeing
	// the last one resets the bump pointer, reclaiming the whole heap.
	winMu   sync.Mutex
	winUsed uint64
	winLive int

	stats shmStats
}

// newShmTransport maps the segment and wires one rank's endpoint over the
// already-dialed hub transport. A host-fingerprint mismatch returns
// (nil, nil): the caller proceeds on pure TCP.
func newShmTransport(segPath string, rank, np int, tcp *tcpTransport) (*shmTransport, error) {
	seg, err := openShmSegment(segPath, np)
	if err == errShmHostMismatch {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	t := &shmTransport{
		seg:      seg,
		rank:     rank,
		np:       np,
		tcp:      tcp,
		out:      make([]shmSendPair, np),
		in:       make([]shmRecvPair, np),
		pollDone: make(chan struct{}),
	}
	for d := 0; d < np; d++ {
		off := seg.pairOff(rank, d)
		p := &t.out[d]
		p.msgTail = shmAtU64(seg.data, off+shmPairOffMsgTail)
		p.msgHead = shmAtU64(seg.data, off+shmPairOffMsgHead)
		p.largeTail = shmAtU64(seg.data, off+shmPairOffLargeTail)
		p.largeHead = shmAtU64(seg.data, off+shmPairOffLargeHead)
		p.ring = seg.data[off+shmPairHdrSize : off+shmPairHdrSize+seg.ringCap]
		lo := off + shmPairHdrSize + seg.ringCap
		p.large = seg.data[lo : lo+seg.largeCap]
	}
	for s := 0; s < np; s++ {
		off := seg.pairOff(s, rank)
		p := &t.in[s]
		p.msgTail = shmAtU64(seg.data, off+shmPairOffMsgTail)
		p.msgHead = shmAtU64(seg.data, off+shmPairOffMsgHead)
		p.ring = seg.data[off+shmPairHdrSize : off+shmPairHdrSize+seg.ringCap]
		lo := off + shmPairHdrSize + seg.ringCap
		p.large = seg.data[lo : lo+seg.largeCap]
	}
	seg.attachWord(rank).Store(shmAttached)
	return t, nil
}

// bind attaches the endpoint to its world and mailbox once they exist (the
// world is built after the hub's start signal; no frame moves before that).
func (t *shmTransport) bind(w *World, box *mailbox) {
	t.world.Store(w)
	t.box = box
}

func (t *shmTransport) startPolling() {
	t.polling.Store(true)
	go t.pollLoop()
}

// wiresTyped: like the TCP wire, the shm transport consumes frame.Val
// synchronously inside Send (encoding it into the ring or staging region),
// so the send path may pass the caller's slice uncopied.
func (t *shmTransport) wiresTyped() bool { return true }

// Send routes control frames to the hub, TCP-fallback pairs through the
// hub, and everything else into the destination pair's ring.
func (t *shmTransport) Send(f frame) error {
	if f.Dst == ctrlDst {
		return t.tcp.Send(f)
	}
	if f.Dst < 0 || f.Dst >= t.np {
		return ErrInvalidRank
	}
	if !headerRanksFit(f) {
		// A tag beyond 31 bits does not fit the record header; the gob
		// wire carries full-width tags, so route the oddball via the hub.
		return t.tcp.Send(f)
	}
	p := &t.out[f.Dst]
	mode := p.mode.Load()
	if mode == shmPairUndecided {
		want := shmPairTCP
		if t.seg.attachState(f.Dst) != shmAbsent {
			want = shmPairRing
		}
		if p.mode.CompareAndSwap(shmPairUndecided, want) {
			mode = want
		} else {
			mode = p.mode.Load()
		}
	}
	if mode == shmPairTCP {
		t.stats.fallback.Add(1)
		return t.tcp.Send(f)
	}
	err := t.sendRing(p, f)
	if err == errShmDrop {
		return nil
	}
	return err
}

// sendRing materializes the frame's payload representation and dispatches
// it to the eager, rendezvous, or chunked protocol.
func (t *shmTransport) sendRing(p *shmSendPair, f frame) error {
	kind := f.Raw
	val := any(nil)
	data := f.Data
	if f.HasVal {
		if k, ok := rawKindOf(f.Val); ok {
			kind, val, data = k, f.Val, nil
		} else {
			// Outside the raw whitelist: gob here, exactly as the TCP wire
			// would, so nothing typed crosses the process boundary raw.
			enc, err := encodeValue(f.Val)
			if err != nil {
				return err
			}
			kind, val, data = rawNone, nil, enc
		}
	}
	paylen := len(data)
	if val != nil {
		paylen = rawSizeOf(val)
	}

	tun := shmTuningVal()
	eagerMax := tun.EagerMax
	if lim := int(t.seg.ringCap/4) - shmRecHdrSize; eagerMax > lim {
		eagerMax = lim
	}
	if paylen <= eagerMax {
		return t.sendEager(p, f, kind, val, data, paylen)
	}
	if paylen <= t.maxBlockPayload() {
		return t.sendLarge(p, f, kind, val, data, paylen)
	}
	return t.sendChunked(p, f, kind, val, data, paylen)
}

// maxBlockPayload is the largest payload staged as a single block: the
// region minus one block header and one worst-case wrap skip.
func (t *shmTransport) maxBlockPayload() int {
	return int(t.seg.largeCap)/2 - 2*shmBlkHdrSize
}

func shmAlign8(n int) uint64     { return uint64(n+7) &^ 7 }
func shmAlign16(n uint64) uint64 { return (n + 15) &^ 15 }

func putShmRecHdr(b []byte, size uint32, kind, flags byte, f frame, paylen uint32) {
	le.PutUint32(b[0:], size)
	b[4] = kind
	b[5] = flags
	b[6], b[7] = 0, 0
	le.PutUint32(b[8:], uint32(int32(f.Tag)))
	le.PutUint32(b[12:], uint32(int32(f.Src)))
	le.PutUint32(b[16:], uint32(int32(f.WSrc)))
	le.PutUint32(b[20:], paylen)
	le.PutUint64(b[24:], uint64(f.Ctx))
}

// shmCopyPayload writes the payload bytes into dst from whichever
// representation the send carries: a direct memcpy of the value's storage
// when a raw view exists, the element-encode loop otherwise, a plain copy
// for already-encoded bytes.
func shmCopyPayload(dst []byte, val any, data []byte) {
	if val != nil {
		if view, ok := rawBytesView(val); ok {
			copy(dst, view)
		} else {
			rawEncode(dst, val)
		}
		return
	}
	copy(dst, data)
}

func (t *shmTransport) sendEager(p *shmSendPair, f frame, kind byte, val any, data []byte, paylen int) error {
	rec := shmAlign8(shmRecHdrSize + paylen)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead.Load() {
		return errShmDrop
	}
	off, tail, err := t.reserve(p, f.Dst, rec)
	if err != nil {
		return err
	}
	putShmRecHdr(p.ring[off:], uint32(rec), kind, 0, f, uint32(paylen))
	shmCopyPayload(p.ring[off+shmRecHdrSize:off+shmRecHdrSize+uint64(paylen)], val, data)
	p.msgTail.Store(tail + rec) // release: publishes header and payload
	t.stats.eager.Add(1)
	return nil
}

func (t *shmTransport) sendLarge(p *shmSendPair, f frame, kind byte, val any, data []byte, paylen int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Checked under the pair mutex: peerFailed's reclaim takes the same
	// mutex after setting dead, so either this send observes dead and drops,
	// or its staged block is ordered before the reclaim and covered by it —
	// a block can never be orphaned past the peer's recorded failure.
	if p.dead.Load() {
		return errShmDrop
	}
	blkOff, err := t.allocBlock(p, f.Dst, paylen)
	if err != nil {
		return err
	}
	shmCopyPayload(p.large[blkOff+shmBlkHdrSize:blkOff+shmBlkHdrSize+uint64(paylen)], val, data)
	rec := shmAlign8(shmRecHdrSize + 8)
	off, tail, err := t.reserve(p, f.Dst, rec)
	if err != nil {
		// No descriptor will ever announce the block; free it so the
		// allocator reclaims the space.
		shmAtU32(p.large, blkOff+4).Store(shmBlkFreed)
		return err
	}
	putShmRecHdr(p.ring[off:], uint32(rec), kind, shmFlagLarge, f, uint32(paylen))
	le.PutUint64(p.ring[off+shmRecHdrSize:], blkOff)
	// One release publishes both the descriptor and the staged block: the
	// consumer only learns the block offset from a record it acquired.
	p.msgTail.Store(tail + rec)
	t.stats.rendezvous.Add(1)
	return nil
}

// sendChunked streams an oversized payload through the large region in
// rendezvous-sized chunks. The pair mutex is held across the whole message
// so its records stay consecutive (per-pair FIFO makes reassembly trivial).
func (t *shmTransport) sendChunked(p *shmSendPair, f frame, kind byte, val any, data []byte, paylen int) error {
	src := data
	scratch := []byte(nil)
	if val != nil {
		if view, ok := rawBytesView(val); ok {
			src = view
		} else {
			scratch = getWireBuf(paylen)
			rawEncode(scratch, val)
			src = scratch
		}
	}
	defer func() {
		if scratch != nil {
			putWireBuf(scratch)
		}
	}()

	chunk := t.maxBlockPayload()
	if chunk > 1<<20 {
		chunk = 1 << 20
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead.Load() {
		return errShmDrop
	}
	sent := 0
	first := true
	for sent < paylen {
		n := chunk
		if rest := paylen - sent; n > rest {
			n = rest
		}
		blkOff, err := t.allocBlock(p, f.Dst, n)
		if err != nil {
			return err
		}
		copy(p.large[blkOff+shmBlkHdrSize:blkOff+shmBlkHdrSize+uint64(n)], src[sent:sent+n])
		flags, bodyLen := shmFlagChunkNext, 8
		if first {
			flags, bodyLen = shmFlagChunkFirst, 16
		}
		rec := shmAlign8(shmRecHdrSize + bodyLen)
		off, tail, err := t.reserve(p, f.Dst, rec)
		if err != nil {
			shmAtU32(p.large, blkOff+4).Store(shmBlkFreed)
			return err
		}
		putShmRecHdr(p.ring[off:], uint32(rec), kind, flags, f, uint32(n))
		if first {
			le.PutUint64(p.ring[off+shmRecHdrSize:], uint64(paylen))
			le.PutUint64(p.ring[off+shmRecHdrSize+8:], blkOff)
		} else {
			le.PutUint64(p.ring[off+shmRecHdrSize:], blkOff)
		}
		p.msgTail.Store(tail + rec)
		first = false
		sent += n
	}
	t.stats.chunked.Add(1)
	return nil
}

// reserve claims `need` contiguous ring bytes for one record, writing a
// wrap marker when the tail would straddle the ring's end. It returns the
// record's byte offset and the pre-advance tail position; the caller writes
// the record and publishes by storing tail+need. Blocks (spin-then-park)
// while the consumer is behind; gives up via sendWait when the world
// aborts, the peer fails, or the transport stops.
func (t *shmTransport) reserve(p *shmSendPair, dst int, need uint64) (uint64, uint64, error) {
	ringCap := t.seg.ringCap
	spins := 0
	park := time.Microsecond
	for {
		tail := p.msgTail.Load()
		head := p.msgHead.Load() // acquire: consumer's progress
		free := ringCap - (tail - head)
		tailOff := tail % ringCap
		contig := ringCap - tailOff
		if contig < need {
			if free >= contig {
				le.PutUint32(p.ring[tailOff:], shmWrapMark)
				p.msgTail.Store(tail + contig)
				continue
			}
		} else if free >= need {
			return tailOff, tail, nil
		}
		if err := t.sendWait(p, dst, &spins, &park); err != nil {
			return 0, 0, err
		}
	}
}

// allocBlock claims a large-region block with room for n payload bytes,
// returning the block header's offset. Freed blocks are reclaimed eagerly by
// advancing the head over them; a tail that would straddle the region's end
// burns a pre-freed skip block. Whenever the region drains empty the cursors
// rebase to the next region boundary, so lock-step traffic restages every
// message at offset 0 and reuses the same cache-hot lines instead of
// marching cold across the whole region — on a collective's round cadence
// this is the difference between L2-resident staging and a 4 MiB working
// set per pair.
func (t *shmTransport) allocBlock(p *shmSendPair, dst int, n int) (uint64, error) {
	largeCap := t.seg.largeCap
	need := shmAlign16(uint64(n) + shmBlkHdrSize)
	spins := 0
	park := time.Microsecond
	for {
		t.advanceLargeHead(p)
		tail := p.largeTail.Load()
		head := p.largeHead.Load()
		if head == tail && tail%largeCap != 0 {
			// Empty: every prior block is freed, so no consumer view is
			// outstanding (head cannot pass a live block) and the offsets
			// below the cursors are dead. Rounding both up keeps the
			// positions monotonic for the free-space arithmetic.
			tail = (tail/largeCap + 1) * largeCap
			p.largeTail.Store(tail)
			p.largeHead.Store(tail)
			head = tail
		}
		free := largeCap - (tail - head)
		tailOff := tail % largeCap
		contig := largeCap - tailOff
		if need <= contig && need <= free {
			le.PutUint32(p.large[tailOff:], uint32(need))
			shmAtU32(p.large, tailOff+4).Store(shmBlkLive)
			p.largeTail.Store(tail + need)
			return tailOff, nil
		}
		if contig < need && free >= contig {
			// Skip block: spans to the region's end, born freed.
			le.PutUint32(p.large[tailOff:], uint32(contig))
			shmAtU32(p.large, tailOff+4).Store(shmBlkFreed)
			p.largeTail.Store(tail + contig)
			continue
		}
		if t.advanceLargeHead(p) {
			continue
		}
		if err := t.sendWait(p, dst, &spins, &park); err != nil {
			return 0, err
		}
	}
}

// advanceLargeHead walks the allocator's head over contiguously freed
// blocks, reclaiming their space. Producer-side only; reports progress.
func (t *shmTransport) advanceLargeHead(p *shmSendPair) bool {
	largeCap := t.seg.largeCap
	head := p.largeHead.Load()
	tail := p.largeTail.Load()
	start := head
	for head < tail {
		off := head % largeCap
		span := uint64(le.Uint32(p.large[off:]))
		if span < shmBlkHdrSize || span > largeCap {
			break // never valid; stop rather than run away
		}
		if shmAtU32(p.large, off+4).Load() != shmBlkFreed {
			break
		}
		head += span
	}
	if head == start {
		return false
	}
	p.largeHead.Store(head)
	return true
}

// sendWait is one blocked-producer backoff cycle. It surfaces the reasons a
// sender must stop waiting: transport shutdown, a world abort, or the peer
// being failed/departed (errShmDrop — the frame is silently dropped, the
// same outcome the hub gives frames for a torn-down destination).
func (t *shmTransport) sendWait(p *shmSendPair, dst int, spins *int, park *time.Duration) error {
	if t.stopped.Load() {
		return ErrShutdown
	}
	if p.dead.Load() || t.seg.attachState(dst) == shmDeparted {
		return errShmDrop
	}
	if w := t.world.Load(); w != nil {
		if err := w.abortErr(); err != nil {
			return err
		}
		if r := w.recov; r != nil && r.isFailed(dst) {
			return errShmDrop
		}
	}
	tun := shmTuningVal()
	*spins++
	if *spins < tun.SpinIters {
		runtime.Gosched()
		return nil
	}
	time.Sleep(*park)
	if *park < tun.MaxPark {
		*park *= 2
		if *park > tun.MaxPark {
			*park = tun.MaxPark
		}
	}
	return nil
}

// pollLoop is the endpoint's consumer: it sweeps every inbound ring
// (including the self pair — a rank may send to itself) and delivers
// decoded frames to the mailbox, spinning then parking when idle.
func (t *shmTransport) pollLoop() {
	defer close(t.pollDone)
	spins := 0
	park := time.Microsecond
	for !t.stopped.Load() {
		progressed := false
		for src := 0; src < t.np; src++ {
			for t.pollPair(src) {
				progressed = true
			}
		}
		if progressed {
			spins = 0
			park = time.Microsecond
			continue
		}
		tun := shmTuningVal()
		spins++
		if spins < tun.SpinIters {
			runtime.Gosched()
			continue
		}
		time.Sleep(park)
		if park < tun.MaxPark {
			park *= 2
			if park > tun.MaxPark {
				park = tun.MaxPark
			}
		}
	}
}

// pollPair consumes at most one record from the src ring, reporting whether
// it consumed anything.
func (t *shmTransport) pollPair(src int) bool {
	p := &t.in[src]
	head := p.msgHead.Load()
	tail := p.msgTail.Load() // acquire: producer's published records
	if head == tail {
		return false
	}
	ringCap := t.seg.ringCap
	off := head % ringCap
	size := le.Uint32(p.ring[off:])
	if size == shmWrapMark {
		p.msgHead.Store(head + (ringCap - off))
		return true
	}
	if uint64(size) < shmRecHdrSize || uint64(size) > ringCap-off {
		if w := t.world.Load(); w != nil {
			w.abort(fmt.Errorf("mpi: rank %d: shm ring from rank %d corrupt (record size %d at offset %d)", t.rank, src, size, off))
		}
		t.stopped.Store(true)
		return false
	}
	t.handleRecord(p, p.ring[off:off+uint64(size)])
	// Release after the eager payload is copied out: the store hands the
	// bytes back to the producer.
	p.msgHead.Store(head + uint64(size))
	return true
}

// handleRecord decodes one ring record into a frame and delivers it.
func (t *shmTransport) handleRecord(p *shmRecvPair, rec []byte) {
	kind := rec[4]
	flags := rec[5]
	paylen := uint64(le.Uint32(rec[20:]))
	f := frame{
		Ctx:  int64(le.Uint64(rec[24:])),
		Src:  int(int32(le.Uint32(rec[12:]))),
		WSrc: int(int32(le.Uint32(rec[16:]))),
		Dst:  t.rank,
		Tag:  int(int32(le.Uint32(rec[8:]))),
	}
	body := rec[shmRecHdrSize:]
	switch {
	case flags&shmFlagLarge != 0:
		blkOff := le.Uint64(body)
		data := p.large[blkOff+shmBlkHdrSize : blkOff+shmBlkHdrSize+paylen]
		state := shmAtU32(p.large, blkOff+4)
		if kind == rawNone {
			// Gob payloads are decoded lazily by the receiver, possibly
			// after more sends recycle the region — copy out and free now.
			buf := make([]byte, paylen)
			copy(buf, data)
			state.Store(shmBlkFreed)
			f.Data = buf
		} else {
			// The zero-copy handoff: the frame views shared memory until
			// the matching Recv's rawDecodeInto copies it straight into the
			// user's slice, then frees the block via rel.
			f.Data = data
			f.Raw = kind
			t.liveBlocks.Add(1)
			f.rel = func() {
				state.Store(shmBlkFreed)
				t.liveBlocks.Add(-1)
			}
		}
	case flags&shmFlagChunkFirst != 0:
		total := le.Uint64(body)
		blkOff := le.Uint64(body[8:])
		var buf []byte
		if kind != rawNone {
			buf = getWireBuf(int(total))
		} else {
			buf = make([]byte, total)
		}
		copy(buf, p.large[blkOff+shmBlkHdrSize:blkOff+shmBlkHdrSize+paylen])
		shmAtU32(p.large, blkOff+4).Store(shmBlkFreed)
		p.asm = &shmAssembly{f: f, kind: kind, buf: buf, fill: int(paylen)}
		t.finishAssembly(p)
	case flags&shmFlagChunkNext != 0:
		a := p.asm
		blkOff := le.Uint64(body)
		if a == nil || a.fill+int(paylen) > len(a.buf) {
			shmAtU32(p.large, blkOff+4).Store(shmBlkFreed)
			return // orphan chunk (sender gave up mid-message); drop
		}
		copy(a.buf[a.fill:], p.large[blkOff+shmBlkHdrSize:blkOff+shmBlkHdrSize+paylen])
		shmAtU32(p.large, blkOff+4).Store(shmBlkFreed)
		a.fill += int(paylen)
		t.finishAssembly(p)
	default: // eager
		if kind == rawNone {
			buf := make([]byte, paylen)
			copy(buf, body[:paylen])
			f.Data = buf
		} else {
			buf := getWireBuf(int(paylen))
			copy(buf, body[:paylen])
			f.Data = buf
			f.Raw = kind
		}
		t.box.deliver(f)
		return
	}
	if flags&shmFlagLarge != 0 {
		t.box.deliver(f)
	}
}

// finishAssembly delivers a chunked message once every byte has arrived.
func (t *shmTransport) finishAssembly(p *shmRecvPair) {
	a := p.asm
	if a == nil || a.fill < len(a.buf) {
		return
	}
	f := a.f
	if a.kind == rawNone {
		f.Data = a.buf
	} else {
		f.Data = a.buf
		f.Raw = a.kind // pooled buffer: the normal release path recycles it
	}
	p.asm = nil
	t.box.deliver(f)
}

// peerFailed reclaims the outbound pair to a failed rank: the pair is
// marked dead (future and blocked sends drop), and every outstanding
// staging block — including rendezvous payloads the dead rank never
// received — is reclaimed at once by advancing the allocator's head to its
// tail. Installed as the world's rank-failure hook by joinHub.
func (t *shmTransport) peerFailed(rank int) {
	if rank < 0 || rank >= t.np || rank == t.rank {
		return
	}
	p := &t.out[rank]
	p.dead.Store(true)
	// The pair mutex excludes in-flight producers: a blocked one observes
	// dead on its next backoff cycle and releases the lock promptly.
	p.mu.Lock()
	p.largeHead.Store(p.largeTail.Load())
	p.mu.Unlock()
}

// peerRejoined pins the outbound pair to a respawned rank onto the TCP
// fallback: the relaunched process maps no shared segment with this one, so
// the sticky routing decision is forced to the hub path and the dead mark is
// cleared (sends must flow again, not drop). Installed as the world's
// rank-rejoin hook by joinHub.
func (t *shmTransport) peerRejoined(rank int) {
	if rank < 0 || rank >= t.np || rank == t.rank {
		return
	}
	p := &t.out[rank]
	p.mode.Store(shmPairTCP)
	p.dead.Store(false)
}

// winAlloc carves bytes out of this rank's window heap, 64-byte aligned,
// and returns the absolute segment offset. It fails (ok=false) when the
// heap is exhausted; the window layer then falls back to process-private
// memory and the active-message path for that window.
func (t *shmTransport) winAlloc(bytes uint64) (off uint64, ok bool) {
	const align = 64
	t.winMu.Lock()
	defer t.winMu.Unlock()
	used := (t.winUsed + align - 1) &^ (align - 1)
	if used+bytes > t.seg.winCap {
		return 0, false
	}
	t.winUsed = used + bytes
	t.winLive++
	return t.seg.winOff(t.rank) + used, true
}

// winFree retires one window's heap allocation. Individual allocations are
// not returned piecemeal — windows are typically long-lived and few — but
// freeing the last live window resets the bump pointer, so serial
// create/free cycles never leak the heap.
func (t *shmTransport) winFree() {
	t.winMu.Lock()
	defer t.winMu.Unlock()
	if t.winLive > 0 {
		t.winLive--
	}
	if t.winLive == 0 {
		t.winUsed = 0
	}
}

// winView returns the segment bytes at an absolute offset — the window
// layer's door into a peer's published window region. The caller has
// validated the offset against the publishing rank's heap bounds.
func (t *shmTransport) winView(off, n uint64) []byte {
	return t.seg.data[off : off+n : off+n]
}

// winDirectOK reports whether direct load/store access to world rank r's
// window memory is sound: the rank is attached to this segment and its pair
// has not been pinned to the TCP fallback (a respawned process maps a
// different world's offsets; its published windows are stale).
func (t *shmTransport) winDirectOK(r int) bool {
	if r == t.rank {
		return true
	}
	if r < 0 || r >= t.np || t.seg.attachState(r) != shmAttached {
		return false
	}
	p := &t.out[r]
	return p.mode.Load() != shmPairTCP && !p.dead.Load()
}

// corruptNextFrame delegates to the hub connection: the shm rings hand the
// receiver the very memory the sender wrote (no wire to corrupt), so only
// frames taking the TCP fallback can carry an injected bit flip.
func (t *shmTransport) corruptNextFrame() bool {
	return t.tcp.corruptNextFrame()
}

// severConnection severs the hub connection underneath the shm data plane:
// ring traffic is unaffected, but control frames and fallback pairs ride
// the resumable TCP session, which reconnects within the grace window.
func (t *shmTransport) severConnection() {
	t.tcp.severConnection()
}

// statsSnapshot reports the endpoint's counters, advancing each outbound
// allocator over freed blocks first so OutstandingLargeBytes reflects what
// is genuinely unreclaimed.
func (t *shmTransport) statsSnapshot() shmTransportStats {
	s := shmTransportStats{
		Eager:      t.stats.eager.Load(),
		Rendezvous: t.stats.rendezvous.Load(),
		Chunked:    t.stats.chunked.Load(),
		Fallback:   t.stats.fallback.Load(),
	}
	for d := range t.out {
		p := &t.out[d]
		p.mu.Lock()
		t.advanceLargeHead(p)
		s.OutstandingLargeBytes += p.largeTail.Load() - p.largeHead.Load()
		p.mu.Unlock()
	}
	t.winMu.Lock()
	s.OutstandingWinBytes = t.winUsed
	t.winMu.Unlock()
	return s
}

// JoinShm connects to the hub at addr as the given rank of an np-rank world
// and runs main with the shared-memory data plane: the worker half of
// "mpirun -transport shm". segPath names a segment built by
// CreateShmSegment for the same np; ranks that mapped it exchange user and
// collective frames through its rings, while formation, abort, heartbeat,
// recovery, and traffic with non-shm ranks ride the hub exactly as in
// JoinTCP — so HubFormationTimeout, ErrWorldAborted, *DeadlineError, and
// WithRecovery semantics are unchanged. A segment created on a different
// host — or an empty segPath — degrades the rank to pure TCP, which is how
// a mixed same-host/remote world interoperates: every rank joins the same
// hub, and each pair uses the fastest path both ends share.
func JoinShm(addr, segPath string, rank, np int, main func(c *Comm) error, opts ...Option) error {
	if segPath != "" && !shmSupported {
		return ErrShmUnsupported
	}
	return joinHub(addr, segPath, rank, np, false, main, opts...)
}

// ShmSupported reports whether the shared-memory transport is available
// on this platform; callers (test matrices, launchers) use it to skip the
// shm leg instead of failing on the stub.
func ShmSupported() bool { return shmSupported }

// RunShm executes main as an SPMD program of np ranks connected through a
// loopback hub with a shared-memory data plane, all within the calling
// process: functionally RunTCP, but user frames travel through mmap-backed
// rings instead of sockets. It is the launcher the shm parity, failure, and
// benchmark suites drive.
func RunShm(np int, main func(c *Comm) error, opts ...Option) error {
	seg, err := CreateShmSegment("", np)
	if err != nil {
		return err
	}
	defer os.Remove(seg)
	return runHub(np, seg, main, opts...)
}

// Close stops the poll loop, marks this rank departed (unwedging any peer
// blocked on a send to it), and closes the hub connection. The mapping is
// unmapped only when no delivered rendezvous frame still views it;
// otherwise it is deliberately leaked — unmapping under a live frame would
// turn an unreleased buffer into a fault.
func (t *shmTransport) Close() error {
	if t.stopped.Swap(true) {
		return t.tcp.Close()
	}
	t.seg.attachWord(t.rank).Store(shmDeparted)
	if t.polling.Load() {
		<-t.pollDone
	}
	err := t.tcp.Close()
	if t.liveBlocks.Load() == 0 {
		t.seg.unmap()
	}
	return err
}

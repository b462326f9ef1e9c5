package mpi

import (
	"errors"
	"fmt"
	"time"
)

// Resilient TCP sessions. Every TCP connection is a *session*: every frame a
// side sends carries a monotonically increasing sequence number, the receiver
// periodically acknowledges the highest sequence it has accepted, and the
// sender keeps the encoded bytes of every unacknowledged frame in a bounded
// replay buffer. When the connection underneath breaks — a NAT timeout, a
// flaky home network, an injected FaultDisconnect — the worker redials the
// hub within the suspicion grace window (HubSuspicion) and both sides resume
// from the peer's acknowledged sequence, retransmitting the tail. A transient
// disconnect is therefore invisible to the program; only grace-window expiry
// (or a replay gap, see below) promotes a suspected rank to failed.
//
// The replay buffer is bounded two ways. Frames larger than replayFrameMax
// are streamed to the wire without being captured (capturing a 1 MiB payload
// would put a memcpy on the large-message fast path); their sequence numbers
// become *gaps*. And the total captured bytes are capped at replayMaxBytes,
// evicting oldest-first into gaps when exceeded. A resume is only possible if
// the peer has acknowledged past the newest gap — otherwise the session is
// honestly unrecoverable and the rank fails with ErrSessionLost. Receivers
// ack every ackEvery frames, which keeps the buffer shallow in practice.

const (
	// replayFrameMax is the largest frame captured for replay on the live
	// path. Larger raw frames stream straight from the caller's buffer
	// (keeping the zero-copy large-message path) and become replay gaps.
	replayFrameMax = 64 << 10

	// replayMaxBytes bounds the total captured-but-unacknowledged bytes per
	// connection direction; beyond it the oldest frames are evicted to gaps.
	replayMaxBytes = 8 << 20

	// ackEvery is the receiver's ack cadence, in accepted frames.
	ackEvery = 32

	// resumeDrainWindow bounds how long a resume waits for the old
	// connection's reader to drain frames the kernel already accepted —
	// streamed large frames live nowhere else, so closing the socket
	// before the drain would lose them for good. It must stay well under
	// the worker's resume-reply deadline (resumeReplyTimeout).
	resumeDrainWindow = time.Second

	// resumeReplyTimeout is how long a redialing worker waits for the
	// hub's 9-byte resume verdict before closing the attempt and retrying
	// within the grace window. It covers the hub's resumeDrainWindow with
	// slack: the hub may drain the old connection before replying.
	resumeReplyTimeout = 2 * time.Second
)

// ErrSessionLost reports that a broken hub connection could not be resumed:
// the grace window expired, the hub refused the resume, or the replay buffer
// had a gap before the peer's acknowledged sequence.
var ErrSessionLost = errors.New("mpi: hub session lost (resume failed)")

// CorruptFrameError reports a frame whose payload failed its CRC32C check: a
// bit flipped in flight (or an injected FaultCorrupt). On a resumable session
// the error is internal — the connection is torn down and the clean copy is
// retransmitted from the sender's replay buffer — and it surfaces to the
// program only when the session cannot be resumed.
type CorruptFrameError struct {
	Seq      uint64
	Src, Dst int
	Tag      int
	Want     uint32 // CRC carried by the frame
	Got      uint32 // CRC computed over the received bytes
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("mpi: corrupt frame on the wire (seq %d, %d->%d tag %d): crc32c %08x, want %08x",
		e.Seq, e.Src, e.Dst, e.Tag, e.Got, e.Want)
}

// replayEntry is one captured frame: its sequence number and its complete
// encoded wire bytes (kind byte, sequence, header, CRC, payload), held in a
// pooled buffer owned by the session until the peer acks past seq.
type replayEntry struct {
	seq uint64
	buf []byte
}

// sendSession is the sending half of a session: sequence assignment plus the
// replay buffer. The owner (hubConn or tcpTransport) serializes access.
type sendSession struct {
	seqOut      uint64 // last sequence assigned
	gapSeq      uint64 // newest sequence NOT in the replay buffer (0 = none)
	replay      []replayEntry
	replayBytes int
}

func (s *sendSession) nextSeq() uint64 {
	s.seqOut++
	return s.seqOut
}

// record takes ownership of a captured frame's buffer, evicting oldest
// frames into gaps if the budget is exceeded.
func (s *sendSession) record(seq uint64, buf []byte) {
	s.replay = append(s.replay, replayEntry{seq: seq, buf: buf})
	s.replayBytes += len(buf)
	i := 0
	for ; s.replayBytes > replayMaxBytes && i < len(s.replay); i++ {
		e := s.replay[i]
		s.replayBytes -= len(e.buf)
		putWireBuf(e.buf)
		if e.seq > s.gapSeq {
			s.gapSeq = e.seq
		}
	}
	if i > 0 {
		n := copy(s.replay, s.replay[i:])
		s.replay = s.replay[:n]
	}
}

// gap marks a sequence as sent-but-not-captured (a streamed large frame).
func (s *sendSession) gap(seq uint64) {
	if seq > s.gapSeq {
		s.gapSeq = seq
	}
}

// trim releases every captured frame the peer has acknowledged.
func (s *sendSession) trim(ack uint64) {
	i := 0
	for ; i < len(s.replay) && s.replay[i].seq <= ack; i++ {
		s.replayBytes -= len(s.replay[i].buf)
		putWireBuf(s.replay[i].buf)
	}
	if i > 0 {
		n := copy(s.replay, s.replay[i:])
		s.replay = s.replay[:n]
	}
}

// pending trims through the peer's acknowledged sequence and returns the
// frames to retransmit, oldest first. It reports false when a gap makes the
// resume impossible (the peer is missing a frame that was never captured).
func (s *sendSession) pending(peerAck uint64) ([]replayEntry, bool) {
	if peerAck < s.gapSeq {
		return nil, false
	}
	s.trim(peerAck)
	return s.replay, true
}

// drop releases the whole replay buffer; the session is over.
func (s *sendSession) drop() {
	for _, e := range s.replay {
		putWireBuf(e.buf)
	}
	s.replay, s.replayBytes = nil, 0
}

// transmit is the send step both ends of a session share: assign the frame
// its sequence number, then either park it in the replay buffer (parked: the
// connection is down and a resume is pending), stream it as a replay gap (a
// raw frame over replayFrameMax), or capture, write, flush, and record it.
// When the write breaks, the frame is made safe for replay first — a
// streamed frame is captured after the fact, its payload still intact, so
// the resume is not doomed by the very frame that broke it — and broken
// reports the write error; the caller applies its break policy (the hub
// suspends, a worker reconnects, a session without grace dies). An encoding
// error comes back with broken false and leaves the connection untouched.
func (s *sendSession) transmit(w *wireWriter, f frame, parked bool) (broken bool, err error) {
	seq := s.nextSeq()
	if !parked && rawPayloadSize(f) > replayFrameMax {
		err := w.writeFrameDirect(f, seq)
		if err == nil {
			err = w.flush()
		}
		if err == nil {
			s.gap(seq)
			return false, nil
		}
		if buf, eerr := w.encodeFrame(f, seq); eerr == nil {
			s.record(seq, buf)
		} else {
			s.gap(seq)
		}
		return true, err
	}
	buf, err := w.encodeFrame(f, seq)
	if err != nil {
		return false, err
	}
	if parked {
		s.record(seq, buf)
		return false, nil
	}
	werr := w.writeEncoded(buf)
	if werr == nil {
		werr = w.flush()
	}
	// Record after the write: record may evict old frames under budget
	// pressure, and the buffer being written must not be reclaimed mid-write.
	s.record(seq, buf)
	return werr != nil, werr
}

// recvSession is the receiving half: duplicate suppression (retransmitted
// tails overlap what already arrived) and the ack cadence.
type recvSession struct {
	seqIn    uint64 // highest sequence accepted
	sinceAck int
}

// note folds one received sequence in. dup means the frame was already
// delivered before the resume and must be discarded; ackNow means the
// receiver should send a cumulative ack.
func (rs *recvSession) note(seq uint64) (dup, ackNow bool) {
	if seq <= rs.seqIn {
		return true, false
	}
	rs.seqIn = seq
	rs.sinceAck++
	if rs.sinceAck >= ackEvery {
		rs.sinceAck = 0
		return false, true
	}
	return false, false
}

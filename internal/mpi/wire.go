package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// le abbreviates the byte order every raw header and payload uses.
var le = binary.LittleEndian

// Typed binary framing for the TCP transport. Every connection is a
// resumable *session* (session.go): each data frame carries a one-byte kind
// and a uint64 sequence number, raw frames add a fixed little-endian header
// and a CRC32C, and a third kind carries the receiver's cumulative
// acknowledgement:
//
//	kindGob  seq uint64 | one gob-encoded frame
//	kindRaw  seq uint64 | header | crc32c uint32 | payload bytes
//	kindAck  ack uint64                      (not sequenced, never replayed)
//
// where the raw header is
//
//	Ctx int64 | Src int32 | WSrc int32 | Dst int32 | Tag int32 |
//	raw kind byte | payload length uint32
//
// and the payload is the element storage of a whitelisted typed slice,
// verbatim (see rawcodec.go). Everything else — control frames, gob-only
// payloads — travels as kindGob.
//
// The CRC covers the fixed header plus the payload — in full for payloads up
// to 2*crcWindow, and the first and last crcWindow bytes for larger ones. A
// bounded window keeps the integrity check off the large-message critical
// path (a full CRC over a 1 MiB payload costs ~25% of the ping-pong; the
// windows cost ~3%) while still catching header corruption, truncation, and
// bit flips near either end. Corruption detected by the reader surfaces as
// *CorruptFrameError, which the session layer treats like a broken
// connection: tear down, resume, retransmit the clean captured copy.
//
// Interleaving raw bytes with a live gob stream is safe because the decoder
// reads from a *bufio.Reader: gob consumes exactly one message's bytes via
// the io.ByteReader interface and never reads ahead, so the next byte after
// a gob message is always ours to interpret as the next kind.
//
// Every rank of a world runs the same binary, so there is exactly one wire:
// the worker's hello announces wireVersion and the hub refuses any other
// value rather than guessing how to frame the connection.
const wireVersion = 2

const (
	kindGob byte = 0x67 // 'g'
	kindRaw byte = 0x72 // 'r'
	kindAck byte = 0x61 // 'a'
)

// rawHeaderLen is the fixed addressing header inside a kindRaw frame.
const rawHeaderLen = 8 + 4 + 4 + 4 + 4 + 1 + 4

const (
	seqLen = 8
	crcLen = 4
	// rawPrefixLen is everything before a raw frame's payload.
	rawPrefixLen = 1 + seqLen + rawHeaderLen + crcLen
	// gobPrefixLen is everything before a gob frame's encoded bytes.
	gobPrefixLen = 1 + seqLen
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on amd64 and
// arm64, the same choice iSCSI and ext4 made.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcWindow bounds the CRC's payload coverage: payloads up to 2*crcWindow
// are covered in full; larger ones contribute their first and last window.
const crcWindow = 64 << 10

// payloadCRC computes a frame's checksum over its fixed header and the
// bounded payload coverage.
func payloadCRC(hdr, payload []byte) uint32 {
	c := crc32.Update(0, crcTable, hdr)
	if len(payload) <= 2*crcWindow {
		return crc32.Update(c, crcTable, payload)
	}
	c = crc32.Update(c, crcTable, payload[:crcWindow])
	return crc32.Update(c, crcTable, payload[len(payload)-crcWindow:])
}

// maxRawFrame bounds the payload length a reader will believe: a corrupted
// or adversarial stream must produce an error, not a giant allocation.
const maxRawFrame = 1 << 30

// wireBufSize sizes the bufio layers: large enough that a small frame plus
// its header coalesces into one write, small enough to be cheap per
// connection.
const wireBufSize = 64 << 10

// wireWriter is the sending half of one connection: a buffered writer plus a
// persistent gob encoder. The encoder targets gobBuf instead of the
// connection, so the session layer can capture a frame's exact bytes for
// replay — the encoder (and its type-descriptor state) survives connection
// swaps, which is what makes resuming a half-spoken gob stream on a fresh
// TCP connection sound.
type wireWriter struct {
	bw     *bufio.Writer
	enc    *gob.Encoder
	gobBuf bytes.Buffer // per-frame gob staging
	hdr    [rawPrefixLen]byte

	// corruptNext makes the next raw frame leave the writer with one payload
	// bit flipped — on the wire only, never in the captured replay copy. The
	// FaultCorrupt injector arms it to prove the CRC catches real bit rot.
	corruptNext bool
}

func newWireWriter(w io.Writer) *wireWriter {
	ww := &wireWriter{bw: bufio.NewWriterSize(w, wireBufSize)}
	ww.enc = gob.NewEncoder(&ww.gobBuf)
	return ww
}

// resetConn points the buffered writer at a new connection after a session
// resume. The gob encoder's state is unaffected (it never writes to the
// connection directly).
func (w *wireWriter) resetConn(c io.Writer) { w.bw.Reset(c) }

func (w *wireWriter) flush() error { return w.bw.Flush() }

// writeHello sends the connection's opening handshake: one gob value, no
// kind byte or sequence number.
func (w *wireWriter) writeHello(hi hello) error {
	if err := w.enc.Encode(hi); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.gobBuf.Bytes()); err != nil {
		return err
	}
	w.gobBuf.Reset()
	return w.bw.Flush()
}

// putRawCore fills the fixed rawHeaderLen-byte header (addressing, raw kind,
// payload length).
func putRawCore(h []byte, f frame, kind byte, payloadLen int) {
	le.PutUint64(h[0:], uint64(f.Ctx))
	le.PutUint32(h[8:], uint32(int32(f.Src)))
	le.PutUint32(h[12:], uint32(int32(f.WSrc)))
	le.PutUint32(h[16:], uint32(int32(f.Dst)))
	le.PutUint32(h[20:], uint32(int32(f.Tag)))
	h[24] = kind
	le.PutUint32(h[25:], uint32(payloadLen))
}

// rawPayloadSize reports the raw-encoded payload length for a frame that
// would travel as kindRaw, or -1 for frames that gob-encode.
func rawPayloadSize(f frame) int {
	if f.HasVal && headerRanksFit(f) {
		if _, ok := rawKindOf(f.Val); ok {
			return rawSizeOf(f.Val)
		}
	}
	if f.Raw != rawNone {
		return len(f.Data)
	}
	return -1
}

// encodeFrame renders one frame — kind byte, sequence, header, CRC, payload —
// into a pooled buffer and returns it. The caller (the session layer) owns
// the buffer: it is written with writeEncoded, kept for replay, and released
// via putWireBuf once the peer acks past seq. Typed payloads that are
// raw-encodable travel as kindRaw, as do already-encoded raw payloads the hub
// forwards; everything else is gob-encoded here — including typed payloads
// outside the raw whitelist, so an in-memory value never leaks onto the wire
// unencoded.
func (w *wireWriter) encodeFrame(f frame, seq uint64) ([]byte, error) {
	if f.HasVal && headerRanksFit(f) {
		if kind, ok := rawKindOf(f.Val); ok {
			n := rawSizeOf(f.Val)
			buf := getWireBuf(rawPrefixLen + n)
			if view, ok := rawBytesView(f.Val); ok {
				copy(buf[rawPrefixLen:], view)
			} else {
				rawEncode(buf[rawPrefixLen:], f.Val)
			}
			putRawPrefix(buf, f, kind, seq, n)
			return buf, nil
		}
	}
	if f.Raw != rawNone {
		n := len(f.Data)
		buf := getWireBuf(rawPrefixLen + n)
		copy(buf[rawPrefixLen:], f.Data)
		putRawPrefix(buf, f, f.Raw, seq, n)
		return buf, nil
	}
	if f.HasVal {
		data, err := encodeValue(f.Val)
		if err != nil {
			return nil, err
		}
		f.Data, f.Val, f.HasVal = data, nil, false
	}
	w.gobBuf.Reset()
	if err := w.enc.Encode(f); err != nil {
		return nil, err
	}
	gb := w.gobBuf.Bytes()
	buf := getWireBuf(gobPrefixLen + len(gb))
	buf[0] = kindGob
	le.PutUint64(buf[1:], seq)
	copy(buf[gobPrefixLen:], gb)
	w.gobBuf.Reset()
	return buf, nil
}

// putRawPrefix fills a captured raw frame's prefix in place; the payload
// must already be at buf[rawPrefixLen:].
func putRawPrefix(buf []byte, f frame, kind byte, seq uint64, n int) {
	buf[0] = kindRaw
	le.PutUint64(buf[1:], seq)
	h := buf[1+seqLen:]
	putRawCore(h, f, kind, n)
	crc := payloadCRC(h[:rawHeaderLen], buf[rawPrefixLen:])
	le.PutUint32(h[rawHeaderLen:], crc)
}

// writeEncoded puts one captured frame on the wire, without flushing. An
// armed corruption flips the last payload byte's low bit in transit — the
// captured copy stays pristine, which is exactly what lets the retransmit
// after the CRC failure deliver clean bytes.
func (w *wireWriter) writeEncoded(buf []byte) error {
	if w.corruptNext && buf[0] == kindRaw && len(buf) > rawPrefixLen {
		w.corruptNext = false
		if _, err := w.bw.Write(buf[:len(buf)-1]); err != nil {
			return err
		}
		return w.bw.WriteByte(buf[len(buf)-1] ^ 0x01)
	}
	_, err := w.bw.Write(buf)
	return err
}

// writeTail retransmits a resumed session's unacknowledged frames, oldest
// first, and flushes them.
func (w *wireWriter) writeTail(entries []replayEntry) error {
	for _, e := range entries {
		if err := w.writeEncoded(e.buf); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// writeFrameDirect streams one large raw frame without capturing it: the
// payload goes straight from the caller's backing array (or a pooled
// scratch), so a large send costs no copy. On layout-compatible platforms
// the bytes are the value's own storage — sends are synchronous on the
// caller's goroutine and the write completes before Send returns, so the
// wire never reads the slice after the caller regains control. The caller
// records the sequence as a replay gap. Does not flush.
func (w *wireWriter) writeFrameDirect(f frame, seq uint64) error {
	var kind byte
	var payload, scratch []byte
	if f.Raw != rawNone {
		kind, payload = f.Raw, f.Data
	} else {
		k, ok := rawKindOf(f.Val)
		if !ok {
			return fmt.Errorf("mpi: writeFrameDirect on a non-raw frame (tag %d)", f.Tag)
		}
		kind = k
		if view, ok := rawBytesView(f.Val); ok {
			payload = view
		} else {
			scratch = getWireBuf(rawSizeOf(f.Val))
			rawEncode(scratch, f.Val)
			payload = scratch
		}
	}
	h := w.hdr[:]
	h[0] = kindRaw
	le.PutUint64(h[1:], seq)
	core := h[1+seqLen:]
	putRawCore(core, f, kind, len(payload))
	le.PutUint32(core[rawHeaderLen:], payloadCRC(core[:rawHeaderLen], payload))
	_, err := w.bw.Write(h)
	if err == nil && len(payload) > 0 {
		if w.corruptNext {
			w.corruptNext = false
			if _, err = w.bw.Write(payload[:len(payload)-1]); err == nil {
				err = w.bw.WriteByte(payload[len(payload)-1] ^ 0x01)
			}
		} else {
			_, err = w.bw.Write(payload)
		}
	}
	if scratch != nil {
		putWireBuf(scratch)
	}
	return err
}

// writeAck sends a cumulative receive acknowledgement and flushes. Acks are
// not sequenced and never replayed: a lost ack just means the peer trims a
// little later. The bytes are staged in the writer's own header buffer: a
// stack array would escape through bufio's underlying io.Writer.
func (w *wireWriter) writeAck(seq uint64) error {
	b := w.hdr[:1+seqLen]
	b[0] = kindAck
	le.PutUint64(b[1:], seq)
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	return w.bw.Flush()
}

// headerRanksFit reports whether the frame's addressing fields survive the
// raw header's int32 fields. Ranks always do (they are small); a pathological
// user tag beyond 31 bits falls back to gob rather than truncating.
func headerRanksFit(f frame) bool {
	return fitsInt32(f.Src) && fitsInt32(f.WSrc) && fitsInt32(f.Dst) && fitsInt32(f.Tag)
}

func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// wireReader is the receiving half: a buffered reader with a persistent gob
// decoder, demultiplexing kind bytes, sequence numbers, CRCs, and acks.
type wireReader struct {
	br  *bufio.Reader
	dec *gob.Decoder
	// seq and hdr are read targets owned by the reader: a stack array handed
	// to io.ReadFull escapes, costing a heap object per received frame.
	seq [seqLen]byte
	hdr [rawHeaderLen + crcLen]byte

	// onAck receives the peer's cumulative acks; the session layer uses it
	// to trim the replay buffer. Called from the reading goroutine.
	onAck func(uint64)
}

func newWireReader(r io.Reader) *wireReader {
	br := bufio.NewReaderSize(r, wireBufSize)
	return &wireReader{br: br, dec: gob.NewDecoder(br)}
}

// resetConn points the buffered reader at a new connection after a session
// resume. The caller must guarantee no read is in flight. The gob decoder
// keeps its type-descriptor state — it reads through br and survives the
// swap, matching the sender's persistent encoder.
func (r *wireReader) resetConn(c io.Reader) { r.br.Reset(c) }

// readHello reads the connection's opening handshake.
func (r *wireReader) readHello() (hello, error) {
	var hi hello
	err := r.dec.Decode(&hi)
	return hi, err
}

// readFrame reads one frame and its sequence number. Raw payloads land in a
// pooled buffer (frame.Data, flagged by frame.Raw); the consumer returns it
// via frame.release or decodeInto. Acks are consumed internally via onAck. A
// CRC mismatch returns *CorruptFrameError; the stream position is past the
// frame, but the session layer tears the connection down rather than
// trusting anything after it.
func (r *wireReader) readFrame() (frame, uint64, error) {
	for {
		kind, err := r.br.ReadByte()
		if err != nil {
			return frame{}, 0, err
		}
		if _, err := io.ReadFull(r.br, r.seq[:]); err != nil {
			return frame{}, 0, err
		}
		seq := le.Uint64(r.seq[:])
		switch kind {
		case kindAck:
			if r.onAck != nil {
				r.onAck(seq)
			}
		case kindGob:
			var f frame
			err := r.dec.Decode(&f)
			return f, seq, err
		case kindRaw:
			f, err := r.readRawBody(seq)
			return f, seq, err
		default:
			return frame{}, seq, fmt.Errorf("mpi: unknown wire frame kind 0x%02x", kind)
		}
	}
}

// readRawBody reads a raw frame's header, CRC, and payload.
func (r *wireReader) readRawBody(seq uint64) (frame, error) {
	// The raw branch keeps its frame variable to itself: sharing one
	// across the gob branches would let Decode's &f force a heap
	// allocation here too, breaking the zero-alloc receive loop.
	var f frame
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return f, err
	}
	h := r.hdr[:]
	n := int(le.Uint32(h[25:]))
	if n > maxRawFrame {
		return f, fmt.Errorf("mpi: raw frame announces %d payload bytes (corrupt stream?)", n)
	}
	f.Ctx = int64(le.Uint64(h[0:]))
	f.Src = int(int32(le.Uint32(h[8:])))
	f.WSrc = int(int32(le.Uint32(h[12:])))
	f.Dst = int(int32(le.Uint32(h[16:])))
	f.Tag = int(int32(le.Uint32(h[20:])))
	f.Raw = h[24]
	payload := getWireBuf(n)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		putWireBuf(payload)
		return f, err
	}
	want := le.Uint32(h[rawHeaderLen:])
	if got := payloadCRC(h[:rawHeaderLen], payload); got != want {
		cerr := &CorruptFrameError{Seq: seq, Src: f.WSrc, Dst: f.Dst, Tag: f.Tag, Want: want, Got: got}
		putWireBuf(payload)
		return f, cerr
	}
	f.Data = payload
	return f, nil
}

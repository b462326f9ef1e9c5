package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Wire-layer tests: the raw codec's round trips, kind-byte framing
// interleaved with a live gob stream, the type-mismatch fallback, the
// allocation discipline the pooled buffers buy, and the hub's refusal of any
// other wire version.

func TestRawCodecRoundTrip(t *testing.T) {
	cases := []any{
		[]float64{0, 1.5, -2.25, 1e300, -1e-300},
		[]int{0, 1, -1, 1 << 40, -(1 << 40)},
		[]int64{0, -9e18, 9e18},
		[]int32{0, 1, -1, 1 << 30, -(1 << 30)},
		[]float32{0, 1.5, -2.25, 3e38},
		[]byte{0, 1, 255, 7},
		[]bool{true, false, true, true},
	}
	for _, v := range cases {
		t.Run(fmt.Sprintf("%T", v), func(t *testing.T) {
			kind, ok := rawKindOf(v)
			if !ok {
				t.Fatalf("rawKindOf(%T) = not encodable", v)
			}
			buf := make([]byte, rawSizeOf(v))
			if n := rawEncode(buf, v); n != len(buf) {
				t.Fatalf("rawEncode wrote %d bytes, rawSizeOf said %d", n, len(buf))
			}
			got, err := rawDecode(kind, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("round trip: got %v, want %v", got, v)
			}
		})
	}
	if _, ok := rawKindOf([]string{"not", "fixed", "width"}); ok {
		t.Fatal("[]string must not be raw-encodable")
	}
	if _, ok := rawKindOf(42); ok {
		t.Fatal("scalars must not be raw-encodable")
	}
}

// TestRawDecodeIntoReusesBacking: a receive buffer with enough capacity is
// reused in place — the property the zero-alloc receive loop rests on.
func TestRawDecodeIntoReusesBacking(t *testing.T) {
	src := []float64{1, 2, 3}
	buf := make([]byte, rawSizeOf(src))
	rawEncode(buf, src)

	dst := make([]float64, 0, 8)
	backing := &dst[:1][0]
	if !rawDecodeInto(rawFloat64, buf, &dst) {
		t.Fatal("matching decode refused")
	}
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("decoded %v, want %v", dst, src)
	}
	if &dst[0] != backing {
		t.Fatal("decode with sufficient capacity reallocated the backing array")
	}
	// Mismatched element type must refuse, not guess.
	var wrong []int64
	if rawDecodeInto(rawFloat64, buf, &wrong) {
		t.Fatal("cross-type decode succeeded")
	}
}

// sendCaptured runs one frame through the writer's captured path — encode,
// write, flush — and releases the capture, as a session would on ack.
func sendCaptured(w *wireWriter, f frame, seq uint64) error {
	buf, err := w.encodeFrame(f, seq)
	if err != nil {
		return err
	}
	defer putWireBuf(buf)
	if err := w.writeEncoded(buf); err != nil {
		return err
	}
	return w.flush()
}

// TestWireInterleavedFrames: one connection carries gob frames and raw
// frames back to back; the reader demultiplexes by kind byte without either
// stream corrupting the other — the property that lets typed payloads share
// a connection with control traffic — and hands back each frame's sequence.
func TestWireInterleavedFrames(t *testing.T) {
	var conn bytes.Buffer
	w := newWireWriter(&conn)
	rd := newWireReader(&conn)

	floats := []float64{3.14, -2.71, 1e9}
	ints := []int{5, -6, 7}
	rawInts := make([]byte, rawSizeOf(ints))
	rawEncode(rawInts, ints)

	frames := []frame{
		{Ctx: 1, Src: 0, Dst: 1, Tag: 3, Val: "control", HasVal: true},     // gob: not whitelisted
		{Ctx: 1, Src: 0, Dst: 1, Tag: 4, Val: floats, HasVal: true},        // raw: typed send
		{Ctx: 1, Src: 2, Dst: 1, Tag: 5, Data: rawInts, Raw: rawInt},       // raw: forwarded payload
		{Ctx: 1, Src: 0, Dst: 1, Tag: 6, Val: []string{"s"}, HasVal: true}, // gob: typed but not raw-encodable
	}
	for i, f := range frames {
		if err := sendCaptured(w, f, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(want uint64) frame {
		t.Helper()
		f, seq, err := rd.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("seq = %d, want %d", seq, want)
		}
		return f
	}

	var s string
	f0 := read(1)
	if err := f0.decodeInto(&s); err != nil || s != "control" {
		t.Fatalf("frame 0: %q, %v", s, err)
	}

	f1 := read(2)
	if f1.Raw != rawFloat64 || f1.Tag != 4 || f1.Src != 0 {
		t.Fatalf("frame 1 header: %+v", f1)
	}
	var gotF []float64
	if err := f1.decodeInto(&gotF); err != nil || !reflect.DeepEqual(gotF, floats) {
		t.Fatalf("frame 1: %v, %v", gotF, err)
	}

	f2 := read(3)
	if f2.Raw != rawInt || f2.Src != 2 || f2.Tag != 5 {
		t.Fatalf("frame 2 header: %+v", f2)
	}
	var gotI []int
	if err := f2.decodeInto(&gotI); err != nil || !reflect.DeepEqual(gotI, ints) {
		t.Fatalf("frame 2: %v, %v", gotI, err)
	}

	f3 := read(4)
	var gotS []string
	if err := f3.decodeInto(&gotS); err != nil || !reflect.DeepEqual(gotS, []string{"s"}) {
		t.Fatalf("frame 3: %v, %v", gotS, err)
	}
}

// TestWireMismatchFallsBackToGob: receiving a raw []float64 into *[]float32
// must behave exactly like the serialized path — a gob round trip with gob's
// numeric conversion rules — rather than erroring or bit-casting.
func TestWireMismatchFallsBackToGob(t *testing.T) {
	var conn bytes.Buffer
	w := newWireWriter(&conn)
	rd := newWireReader(&conn)

	sent := []float64{1, 2.5, -3} // exactly representable in float32
	if err := sendCaptured(w, frame{Ctx: 1, Tag: 1, Val: sent, HasVal: true}, 1); err != nil {
		t.Fatal(err)
	}
	f, _, err := rd.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	var got []float32
	if err := f.decodeInto(&got); err != nil {
		t.Fatal(err)
	}
	if want := []float32{1, 2.5, -3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestWireRawSendZeroAlloc pins the acceptance bar for the typed TCP path:
// once the buffer freelist is warm, a steady-state send+receive of a
// whitelisted slice allocates zero amortized heap objects per message. The
// loop is the production session round trip — sequence, capture, write,
// flush, record on the sender; kind and sequence demultiplex, CRC check,
// pooled payload, duplicate check, in-place decode on the receiver — plus
// the receiver's periodic ack and the sender's ack-driven trim of its replay
// buffer. The loopback is a real OS pipe; the acks share it with the data
// frames so one goroutine can drive both ends.
func TestWireRawSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race-detector instrumentation")
	}
	// Earlier tests leave arbitrary-sized buffers in the freelist; steady
	// state for THIS message size starts from an empty pool plus warm-up.
	for {
		select {
		case <-wireBufs:
			continue
		default:
		}
		break
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()

	w := newWireWriter(pw)
	acker := newWireWriter(pw)
	rd := newWireReader(pr)
	var sendq sendSession
	var recvq recvSession
	rd.onAck = sendq.trim

	const elems = 4096 // 32 KiB payload: under replayFrameMax, so every
	// frame is captured for replay, and frame plus ack fit the pipe buffer.
	payload := make([]float64, elems)
	for i := range payload {
		payload[i] = float64(i)
	}
	// The frame is built once: the loop under measurement is send/recv of a
	// long-lived message shape, the steady state of a halo exchange.
	f := frame{Ctx: 1, Src: 0, WSrc: 0, Dst: 1, Tag: 5, Val: payload, HasVal: true}
	dst := make([]float64, elems)

	var loopErr error
	roundTrip := func() {
		if broken, err := sendq.transmit(w, f, false); broken || err != nil {
			loopErr = fmt.Errorf("transmit: broken %v, %v", broken, err)
			return
		}
		g, seq, err := rd.readFrame()
		if err != nil {
			loopErr = err
			return
		}
		dup, ackNow := recvq.note(seq)
		if dup {
			loopErr = fmt.Errorf("fresh seq %d flagged duplicate", seq)
			return
		}
		if ackNow {
			if err := acker.writeAck(recvq.seqIn); err != nil {
				loopErr = err
				return
			}
		}
		if !rawDecodeInto(g.Raw, g.Data, &dst) {
			loopErr = fmt.Errorf("frame arrived non-raw: %+v", g)
			return
		}
		putWireBuf(g.Data)
	}
	// Warm up through several ack cycles: the freelist and the replay slice
	// reach their working size.
	for i := 0; i < 4*ackEvery && loopErr == nil; i++ {
		roundTrip()
	}
	if loopErr != nil {
		t.Fatal(loopErr)
	}
	if dst[elems-1] != float64(elems-1) {
		t.Fatalf("decode corrupted payload: %v", dst[elems-1])
	}

	if allocs := testing.AllocsPerRun(3*ackEvery, roundTrip); allocs != 0 {
		t.Fatalf("steady-state session round trip allocates %v objects per message, want 0", allocs)
	}
	if loopErr != nil {
		t.Fatal(loopErr)
	}
	if len(sendq.replay) > ackEvery+1 {
		t.Fatalf("replay buffer holds %d frames: acks are not trimming it", len(sendq.replay))
	}
}

// TestMixedVersionWorld: a world in which one worker announces an older wire
// must fail formation — promptly, with an error naming the rank and the
// version — rather than hang or have the hub guess a framing. The
// well-behaved rank learns of the failure instead of its start signal.
func TestMixedVersionWorld(t *testing.T) {
	hub, err := StartHub("127.0.0.1:0", 2, HubFormationTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	joined := make(chan error, 1)
	go func() {
		joined <- JoinTCP(hub.Addr(), 0, 2, func(c *Comm) error { return nil })
	}()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(hello{Rank: 1, Wire: 1}); err != nil {
		t.Fatal(err)
	}

	waited := make(chan error, 1)
	go func() { waited <- hub.Wait() }()
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("hub accepted a wire-version-1 hello")
		}
		for _, want := range []string{"rank 1", "wire version 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("hub error %q does not name %q", err, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub still waiting after a wire-version-1 hello")
	}
	select {
	case err := <-joined:
		if err == nil {
			t.Fatal("rank 0 started in a world that failed formation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank 0 never learned the world failed formation")
	}
}

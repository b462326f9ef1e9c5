package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Raw little-endian payload codec for the TCP transport's typed binary
// framing. Gob is self-describing and flexible, but for a 1 MB []float64 it
// spends its time on varint encoding and type metadata that both ends of an
// in-repo connection already agree on. The raw codec covers exactly the
// numeric slice shapes from the fast-path whitelist (fastpath.go) and writes
// their element storage verbatim in little-endian order: encoding is a
// memmove-shaped loop, decoding another, and the framing layer (wire.go)
// carries a one-byte kind code so the receiver knows which loop to run.
// Everything outside this whitelist still travels as gob — the raw path is
// an optimization, never a change in what can be sent.

// Raw payload kind codes. rawNone marks a frame whose payload is gob (or
// typed in-memory); the rest identify a whitelisted slice element type.
const (
	rawNone    byte = 0
	rawFloat64 byte = 1
	rawInt     byte = 2 // transmitted as int64; decode errors on overflow, like gob
	rawInt64   byte = 3
	rawInt32   byte = 4
	rawFloat32 byte = 5
	rawBytes   byte = 6
	rawBool    byte = 7
)

// rawKindOf reports the raw wire kind for v, and whether v is raw-encodable
// at all. []string is fast-path whitelisted in memory but excluded here: its
// elements are variable length, so it gains little over gob.
func rawKindOf(v any) (byte, bool) {
	switch v.(type) {
	case []float64:
		return rawFloat64, true
	case []int:
		return rawInt, true
	case []int64:
		return rawInt64, true
	case []int32:
		return rawInt32, true
	case []float32:
		return rawFloat32, true
	case []byte:
		return rawBytes, true
	case []bool:
		return rawBool, true
	}
	return rawNone, false
}

// rawSizeOf reports the encoded payload length in bytes for a raw-encodable
// value (which the caller has already vetted with rawKindOf).
func rawSizeOf(v any) int {
	switch x := v.(type) {
	case []float64:
		return 8 * len(x)
	case []int:
		return 8 * len(x)
	case []int64:
		return 8 * len(x)
	case []int32:
		return 4 * len(x)
	case []float32:
		return 4 * len(x)
	case []byte:
		return len(x)
	case []bool:
		return len(x)
	}
	return 0
}

// rawEncode writes v's element storage into buf, which the caller has sized
// with rawSizeOf, and reports the bytes written.
func rawEncode(buf []byte, v any) int {
	switch x := v.(type) {
	case []float64:
		for i, e := range x {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(e))
		}
		return 8 * len(x)
	case []int:
		for i, e := range x {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(e)))
		}
		return 8 * len(x)
	case []int64:
		for i, e := range x {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(e))
		}
		return 8 * len(x)
	case []int32:
		for i, e := range x {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(e))
		}
		return 4 * len(x)
	case []float32:
		for i, e := range x {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(e))
		}
		return 4 * len(x)
	case []byte:
		return copy(buf, x)
	case []bool:
		for i, e := range x {
			if e {
				buf[i] = 1
			} else {
				buf[i] = 0
			}
		}
		return len(x)
	}
	return 0
}

// rawDecodeInto decodes a raw payload into the receive pointer dst when the
// element types match exactly, reusing dst's backing array when it has the
// capacity (that is what makes a steady-state receive loop allocation-free).
// A false return means the receiver asked for a different type and the
// caller must fall back to the gob round trip for identical error semantics.
func rawDecodeInto(kind byte, data []byte, dst any) bool {
	switch p := dst.(type) {
	case *[]float64:
		if kind != rawFloat64 {
			return false
		}
		n := len(data) / 8
		s := growSlice(*p, n)
		if view, ok := rawBytesView(s); ok {
			copy(view, data)
		} else {
			for i := 0; i < n; i++ {
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		*p = s
		return true
	case *[]int:
		if kind != rawInt {
			return false
		}
		n := len(data) / 8
		s := growSlice(*p, n)
		if view, ok := rawBytesView(s); ok {
			copy(view, data)
		} else {
			for i := 0; i < n; i++ {
				s[i] = int(int64(binary.LittleEndian.Uint64(data[8*i:])))
			}
		}
		*p = s
		return true
	case *[]int64:
		if kind != rawInt64 {
			return false
		}
		n := len(data) / 8
		s := growSlice(*p, n)
		if view, ok := rawBytesView(s); ok {
			copy(view, data)
		} else {
			for i := 0; i < n; i++ {
				s[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		*p = s
		return true
	case *[]int32:
		if kind != rawInt32 {
			return false
		}
		n := len(data) / 4
		s := growSlice(*p, n)
		if view, ok := rawBytesView(s); ok {
			copy(view, data)
		} else {
			for i := 0; i < n; i++ {
				s[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		*p = s
		return true
	case *[]float32:
		if kind != rawFloat32 {
			return false
		}
		n := len(data) / 4
		s := growSlice(*p, n)
		if view, ok := rawBytesView(s); ok {
			copy(view, data)
		} else {
			for i := 0; i < n; i++ {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		*p = s
		return true
	case *[]byte:
		if kind != rawBytes {
			return false
		}
		s := growSlice(*p, len(data))
		copy(s, data)
		*p = s
		return true
	case *[]bool:
		if kind != rawBool {
			return false
		}
		s := growSlice(*p, len(data))
		for i, b := range data {
			s[i] = b != 0
		}
		*p = s
		return true
	}
	return false
}

// growSlice returns s resized to n elements, reusing its backing array when
// the capacity allows.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// rawDecode materializes a raw payload as a fresh value of its sent type:
// the fallback when the receiver's pointer type does not match (the value is
// then gob round-tripped so mismatch behavior is identical to the serialized
// path).
func rawDecode(kind byte, data []byte) (any, error) {
	switch kind {
	case rawFloat64:
		var s []float64
		rawDecodeInto(kind, data, &s)
		return s, nil
	case rawInt:
		var s []int
		rawDecodeInto(kind, data, &s)
		return s, nil
	case rawInt64:
		var s []int64
		rawDecodeInto(kind, data, &s)
		return s, nil
	case rawInt32:
		var s []int32
		rawDecodeInto(kind, data, &s)
		return s, nil
	case rawFloat32:
		var s []float32
		rawDecodeInto(kind, data, &s)
		return s, nil
	case rawBytes:
		var s []byte
		rawDecodeInto(kind, data, &s)
		return s, nil
	case rawBool:
		var s []bool
		rawDecodeInto(kind, data, &s)
		return s, nil
	}
	return nil, fmt.Errorf("mpi: unknown raw payload kind %d", kind)
}

// wireBufs recycles payload buffers between the framing layer's encode,
// forward, and decode sites. A channel freelist instead of a sync.Pool:
// Put-ting a []byte into a sync.Pool heap-allocates the slice header every
// time (defeating the zero-alloc receive loop), while channel operations
// copy the header by value. The freelist is deliberately small and refuses
// oversized buffers so an 8 MB benchmark sweep cannot pin hundreds of
// megabytes of dead capacity.
var wireBufs = make(chan []byte, 32)

// maxPooledBuf bounds the capacity the freelist will retain.
const maxPooledBuf = 2 << 20

// getWireBuf returns a length-n buffer, reusing a pooled one when a large
// enough candidate is available. Too-small candidates are dropped rather
// than recycled: the freelist is FIFO, so putting a small buffer back just
// cycles it to the tail and every large-message get would malloc forever
// after a payload-size increase. Dropping lets the pool converge to the
// current working size within a few dozen messages.
func getWireBuf(n int) []byte {
	for tries := 0; tries < 2; tries++ {
		select {
		case b := <-wireBufs:
			if cap(b) >= n {
				return b[:n]
			}
		default:
			return make([]byte, n)
		}
	}
	return make([]byte, n)
}

// putWireBuf returns a buffer to the freelist, dropping it when the list is
// full or the buffer is outside the retention bound.
func putWireBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	select {
	case wireBufs <- b[:0]:
	default:
	}
}

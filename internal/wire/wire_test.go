package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"unsafe"
)

var sink [2]string // keeps decoded strings on the heap

func TestWireRoundTrip(t *testing.T) {
	var w Writer
	w.BeginFrame()
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Varint(-1)
	w.String("")
	w.String("päth/☃")
	frame := w.Frame()
	if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(frame)-4)
	}

	for _, r := range []Reader{NewReader(frame[4:]), NewAliasingReader(frame[4:])} {
		if r.Byte() != 7 || !r.Bool() || r.Bool() || r.Uvarint() != math.MaxUint64 ||
			r.Varint() != math.MinInt64 || r.Varint() != -1 || r.String() != "" || r.String() != "päth/☃" {
			t.Fatal("fields did not round-trip")
		}
		if r.Err() != nil || r.Len() != 0 || r.Offset() != len(frame)-4 {
			t.Fatalf("after the last field: err %v, %d unread, offset %d", r.Err(), r.Len(), r.Offset())
		}
	}

	// Fixed-width reads, as Cmd and the snapshot lay them out.
	b := binary.LittleEndian.AppendUint64(nil, 0xfeedfacecafebeef)
	b = binary.LittleEndian.AppendUint16(b, 0xabcd)
	b = append(binary.LittleEndian.AppendUint32(b, 3), "abc"...)
	r := NewReader(b)
	if r.U64() != 0xfeedfacecafebeef || r.U16() != 0xabcd || r.String32() != "abc" || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("fixed-width fields did not round-trip: %v", r.Err())
	}
}

// TestWireReaderErrorSticks: the first read that does not fit fails, every
// later one returns zero without moving, and Err keeps the first offset.
func TestWireReaderErrorSticks(t *testing.T) {
	for name, msg := range map[string][]byte{
		"string longer than message": {5, 'a', 'b'},
		"varint cut short":           {0x80},
		"varint overflows":           bytes.Repeat([]byte{0xff}, 11),
		"u64 in 3 bytes":             nil,
	} {
		r := NewAliasingReader(msg)
		if name == "u64 in 3 bytes" {
			r = NewReader([]byte{1, 2, 3})
			r.U64()
		} else {
			_ = r.String()
		}
		first := r.Err()
		if first == nil {
			t.Fatalf("%s: no error", name)
		}
		off := r.Offset()
		if r.Byte() != 0 || r.Bool() || r.U16() != 0 || r.U64() != 0 || r.Uvarint() != 0 || r.Varint() != 0 ||
			r.String() != "" || r.String32() != "" {
			t.Fatalf("%s: a read after the failure returned data", name)
		}
		if r.Err() != first || r.Offset() != off {
			t.Fatalf("%s: error or offset moved after the failure: %v at %d", name, r.Err(), r.Offset())
		}
	}
	// A length no message could hold is refused, not converted to int.
	r := NewReader(binary.AppendUvarint(nil, math.MaxUint64))
	if _ = r.String(); r.Err() == nil {
		t.Fatal("2^64-1-byte string accepted")
	}
}

// TestWireAliasingReaderSharesOneCopy: NewAliasingReader's strings are
// substrings of one copy (not of the caller's buffer, which is reused);
// NewReader's are each their own.
func TestWireAliasingReaderSharesOneCopy(t *testing.T) {
	var w Writer
	w.BeginFrame()
	w.String("first")
	w.String("second")
	body := bytes.Clone(w.Frame()[4:])

	r := NewAliasingReader(body)
	a, b := r.String(), r.String()
	if got := uintptr(unsafe.Pointer(unsafe.StringData(b))) - uintptr(unsafe.Pointer(unsafe.StringData(a))); got != uintptr(len("first")+1) {
		t.Fatalf("strings are %d bytes apart, want adjacent in one copy", got)
	}
	clear(body) // the connection's next frame lands here
	if a != "first" || b != "second" {
		t.Fatalf("decoded strings changed with the buffer: %q %q", a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewAliasingReader(w.Frame()[4:])
		sink[0], sink[1] = r.String(), r.String()
	}); allocs != 1 {
		t.Fatalf("aliasing decode of two strings: %v allocs, want 1", allocs)
	}
}

func TestFrameReadAndLimits(t *testing.T) {
	var w Writer
	var stream bytes.Buffer
	for _, s := range []string{"one", "", strings.Repeat("x", 5000)} {
		w.BeginFrame()
		w.String(s)
		stream.Write(w.Frame())
	}
	whole := bytes.Clone(stream.Bytes())

	br := bufio.NewReader(&stream)
	var buf []byte
	for i, want := range []string{"one", "", strings.Repeat("x", 5000)} {
		var err error
		if buf, err = ReadFrame(br, buf, 1<<20); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		r := NewReader(buf)
		if got := r.String(); got != want || r.Err() != nil {
			t.Fatalf("frame %d: %d-byte string, err %v", i, len(got), r.Err())
		}
	}
	if _, err := ReadFrame(br, buf, 1<<20); err != io.EOF {
		t.Fatalf("end of stream between frames: %v, want io.EOF", err)
	}

	// A warm buffer is reused.
	br = bufio.NewReader(bytes.NewReader(whole))
	big := make([]byte, 0, 8192)
	got, err := ReadFrame(br, big, 1<<20)
	if err != nil || unsafe.SliceData(got) != unsafe.SliceData(big) {
		t.Fatalf("frame not read into the caller's buffer (err %v)", err)
	}

	for name, c := range map[string]struct {
		in    []byte
		limit int
		want  error
	}{
		"ends inside the length": {whole[:2], 1 << 20, io.ErrUnexpectedEOF},
		"ends inside the body":   {whole[:6], 1 << 20, io.ErrUnexpectedEOF},
		"over the limit":         {whole, 2, nil},
		"length 0xffffffff":      {[]byte{0xff, 0xff, 0xff, 0xff, 1}, 1 << 20, nil},
	} {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(c.in)), nil, c.limit)
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
		if c.want == nil && !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: err = %v, want the limit named", name, err)
		}
	}
}

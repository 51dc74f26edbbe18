// Package wire holds the primitives the hand-written binary codecs share:
// an append-style Writer, a Reader whose first failure sticks — so a
// decoder is a straight list of field reads and one Err check — and the
// length-prefixed frame that carries one message over a byte stream.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Writer appends fields to one reused buffer.
type Writer struct{ b []byte }

// BeginFrame empties the buffer and reserves the frame's length prefix.
func (w *Writer) BeginFrame() { w.b = append(w.b[:0], 0, 0, 0, 0) }

// Frame fills in the length prefix and returns prefix plus body, ready
// for a single Write. The slice is valid until the next BeginFrame.
func (w *Writer) Frame() []byte {
	binary.LittleEndian.PutUint32(w.b, uint32(len(w.b)-4))
	return w.b
}

func (w *Writer) Byte(v byte)      { w.b = append(w.b, v) }
func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *Writer) Varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }

func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.b = append(w.b, b)
}

// String appends a uvarint length and the bytes.
func (w *Writer) String(s string) {
	w.b = append(binary.AppendUvarint(w.b, uint64(len(s))), s...)
}

// ReadFrame reads one frame from br and returns its body, in buf when
// that is big enough. A stream that ends between frames is io.EOF, one
// that ends inside a frame io.ErrUnexpectedEOF; a length over limit is
// refused before any of the body is read.
func ReadFrame(br *bufio.Reader, buf []byte, limit int) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 0 || n > limit {
		return buf[:0], fmt.Errorf("wire: %d-byte frame exceeds the %d-byte limit", n, limit)
	}
	br.Discard(4) // cannot fail: Peek buffered these bytes
	if n > cap(buf) {
		buf = make([]byte, n)
	}
	if _, err = io.ReadFull(br, buf[:n]); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf[:n], err
}

// Reader consumes fields from one message. After the first read that
// does not fit, every read returns the zero value and Err says where it
// stopped.
type Reader struct {
	b   []byte
	s   string // when set, b's bytes as a string: strings are substrings of it
	off int
	err error
}

// NewReader reads b; each decoded string is its own copy.
func NewReader(b []byte) Reader { return Reader{b: b} }

// NewAliasingReader copies b to a string once; every decoded string is a
// substring of that copy, so a message costs one allocation however many
// strings it carries (and any one of them keeps the whole message alive).
func NewAliasingReader(b []byte) Reader { return Reader{b: b, s: string(b)} }

// Err is the first failure, Len the unread byte count, Offset the
// position of the next read.
func (r *Reader) Err() error  { return r.err }
func (r *Reader) Len() int    { return len(r.b) - r.off }
func (r *Reader) Offset() int { return r.off }

// take returns the next n bytes, or nil once a read has not fit.
func (r *Reader) take(n uint64) []byte {
	if r.err == nil && n > uint64(r.Len()) {
		r.err = fmt.Errorf("wire: %d-byte field at offset %d of %d", n, r.off, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	r.off += int(n)
	return r.b[r.off-int(n) : r.off]
}

// zeros is what a fixed-width read decodes after a failure; never written.
var zeros [8]byte

func (r *Reader) fixed(n uint64) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

// Byte, U16 and U64 read fixed-width little-endian values.
func (r *Reader) Byte() byte  { return r.fixed(1)[0] }
func (r *Reader) Bool() bool  { return r.Byte() != 0 }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("wire: bad varint at offset %d of %d", r.off, len(r.b))
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Varint() int64 {
	u := r.Uvarint() // zigzag, as binary.AppendVarint wrote it
	return int64(u>>1) ^ -int64(u&1)
}

// String reads what Writer.String wrote; String32 a string behind a
// fixed-width little-endian u32 length.
func (r *Reader) String() string   { return r.str(r.Uvarint()) }
func (r *Reader) String32() string { return r.str(uint64(binary.LittleEndian.Uint32(r.fixed(4)))) }

func (r *Reader) str(n uint64) string {
	b := r.take(n)
	if r.s != "" {
		return r.s[r.off-len(b) : r.off]
	}
	return string(b)
}

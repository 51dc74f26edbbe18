package mantle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"mantle/internal/types"
	"mantle/internal/wire"
)

// respBody is resp as appendResponse frames it, without the length prefix.
func respBody(resp *remoteResponse) []byte {
	var w wire.Writer
	w.BeginFrame()
	appendResponse(&w, resp)
	return bytes.Clone(w.Frame()[4:])
}

// TestRemoteEnvelopeCompat pins how the wire format evolves: fields are
// only ever appended, a decoder ignores bytes after the last field it
// knows, and Load / RetryAfter — added after the first revision — are an
// optional tail that decodes to zero when the frame ends before them.
func TestRemoteEnvelopeCompat(t *testing.T) {
	full := remoteResponse{
		ErrKind:    "overloaded",
		ErrMsg:     "shed",
		Next:       "tok",
		Stats:      OpStats{RTTs: 1, Retries: 2},
		Load:       int64(3 * time.Millisecond),
		RetryAfter: int64(time.Millisecond),
	}
	body := respBody(&full)
	loadLen := len(binary.AppendVarint(nil, full.Load))
	retryLen := len(binary.AppendVarint(nil, full.RetryAfter))

	// Old server → new client: the frame ends before the tail, or between
	// its two fields. Absent fields are zero (idle load, no retry hint),
	// not an error, and the shared fields are intact.
	for _, c := range []struct {
		cut        int
		load, wait int64
	}{
		{loadLen + retryLen, 0, 0},
		{retryLen, full.Load, 0},
	} {
		var got remoteResponse
		if err := decodeResponse(body[:len(body)-c.cut], &got); err != nil {
			t.Fatalf("new client rejected a frame %d bytes short of the tail: %v", c.cut, err)
		}
		if got.ErrKind != "overloaded" || got.Next != "tok" || got.Stats.Retries != 2 {
			t.Fatalf("shared fields corrupted: %+v", got)
		}
		if got.Load != c.load || got.RetryAfter != c.wait {
			t.Fatalf("tail cut by %d: load=%d retryAfter=%d, want %d and %d", c.cut, got.Load, got.RetryAfter, c.load, c.wait)
		}
	}

	// New server → old client: bytes after the last known field belong to
	// fields this build has not heard of, and must not break it.
	var got remoteResponse
	if err := decodeResponse(append(bytes.Clone(body), 0xde, 0xad, 0xbe, 0xef), &got); err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("trailing bytes changed the decode:\n got %+v\nwant %+v", got, full)
	}
	var w wire.Writer
	w.BeginFrame()
	req := remoteRequest{Op: "listpage", Path: "/a", After: "k", Limit: 5}
	if err := appendRequest(&w, &req); err != nil {
		t.Fatal(err)
	}
	var gotReq remoteRequest
	if err := decodeRequest(append(bytes.Clone(w.Frame()[4:]), 1, 2, 3), &gotReq); err != nil || gotReq != req {
		t.Fatalf("request with trailing bytes = %+v, %v; want %+v", gotReq, err, req)
	}

	// Only the tail is optional: a frame cut inside a required field is an
	// error, never a response with zeros in it.
	for cut := loadLen + retryLen + 1; cut <= len(body); cut++ {
		if err := decodeResponse(body[:len(body)-cut], &got); err == nil {
			t.Fatalf("frame cut %d bytes short decoded: %+v", cut, got)
		}
	}
}

func TestRemoteOverloadedTravelsTheWire(t *testing.T) {
	// The kind mapping round-trips the typed shed error with its
	// retry-after hint intact.
	orig := types.Overloaded(5 * time.Millisecond)
	kind := ErrorKind(orig)
	if kind != "overloaded" {
		t.Fatalf("ErrorKind(Overloaded) = %q", kind)
	}
	back := kindErr(kind, orig.Error(), types.RetryAfter(orig))
	if !errors.Is(back, ErrOverloaded) {
		t.Fatalf("reconstructed error lost sentinel: %v", back)
	}
	if ra := types.RetryAfter(back); ra != 5*time.Millisecond {
		t.Fatalf("retry-after lost on the wire: %v", ra)
	}
}

func TestRemoteLoadHintPiggyback(t *testing.T) {
	rc := newRemoteRig(t)
	if err := rc.Mkdir("/lh"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := rc.StatDir("/lh"); err != nil {
			t.Fatal(err)
		}
	}
	// An in-process fabric is effectively idle, so the hint is small —
	// the point is that every reply refreshed it without error.
	if rc.LoadHint() < 0 {
		t.Fatalf("negative load hint: %v", rc.LoadHint())
	}
}

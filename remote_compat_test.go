package mantle

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"mantle/internal/types"
)

// legacyResponse is the wire response as it existed before the Load /
// RetryAfter piggyback fields. Gob matches struct fields by name and
// silently skips fields unknown to the receiver, which is exactly the
// compatibility contract the protocol relies on; this test pins it.
type legacyResponse struct {
	ErrKind string
	ErrMsg  string
	Info    Info
	Infos   []Info
	Next    string
	Stats   OpStats
}

func TestRemoteEnvelopeGobCompat(t *testing.T) {
	// New server → old client: the extra Load/RetryAfter fields must not
	// break a decoder compiled against the legacy envelope.
	newResp := remoteResponse{
		ErrKind:    "overloaded",
		ErrMsg:     "shed",
		Next:       "tok",
		Stats:      OpStats{RTTs: 1, Retries: 2},
		Load:       int64(3 * time.Millisecond),
		RetryAfter: int64(time.Millisecond),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&newResp); err != nil {
		t.Fatal(err)
	}
	var old legacyResponse
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old client rejected new envelope: %v", err)
	}
	if old.ErrKind != "overloaded" || old.Next != "tok" || old.Stats.Retries != 2 {
		t.Fatalf("shared fields corrupted: %+v", old)
	}

	// Old server → new client: absent fields decode to their zero values
	// (idle load, no retry hint), not an error.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&legacyResponse{ErrKind: "exists", ErrMsg: "dup", Next: "n"}); err != nil {
		t.Fatal(err)
	}
	var fresh remoteResponse
	if err := gob.NewDecoder(&buf).Decode(&fresh); err != nil {
		t.Fatalf("new client rejected legacy envelope: %v", err)
	}
	if fresh.ErrKind != "exists" || fresh.Next != "n" {
		t.Fatalf("shared fields corrupted: %+v", fresh)
	}
	if fresh.Load != 0 || fresh.RetryAfter != 0 {
		t.Fatalf("absent fields not zero: load=%d retryAfter=%d", fresh.Load, fresh.RetryAfter)
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

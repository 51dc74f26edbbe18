package storage

import (
	"errors"
	"testing"
	"time"

	"mantle/internal/types"
)

// TestCommitUnknownTxnFails: a commit the shard does not know applies
// nothing and says so with ErrUnavailable — never ErrUnreachable, which
// would make rpc re-run the call.
func TestCommitUnknownTxnFails(t *testing.T) {
	s := NewShard("s0")
	err := s.Commit("never-prepared")
	if !errors.Is(err, types.ErrUnavailable) || errors.Is(err, types.ErrUnreachable) {
		t.Fatalf("commit of an unknown txn = %v, want ErrUnavailable", err)
	}
	if s.Len() != 0 {
		t.Fatal("unknown commit applied rows")
	}
	s.Abort("never-prepared") // still a no-op
}

// TestRestartForgetsPrepares: a prepare accepted before the crash, and
// one accepted while the shard was down, are both unknown after Restart,
// with no locks left behind; only the logged commit survives.
func TestRestartForgetsPrepares(t *testing.T) {
	s, _ := walShard(t, 0)
	if err := s.Prepare("kept", nil, []Mutation{putMut(1, "kept", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("kept"); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare("before", nil, []Mutation{putMut(1, "before", 2)}); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Prepare("down", nil, []Mutation{putMut(1, "down", 3)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"before", "down"} {
		if err := s.Commit(id); !errors.Is(err, types.ErrUnavailable) {
			t.Fatalf("commit of %q after restart = %v, want ErrUnavailable", id, err)
		}
	}
	if s.LockedKeys() != 0 {
		t.Fatalf("%d locks survived the restart", s.LockedKeys())
	}
	if got := dumpRows(s); len(got) != 1 || s.Len() != 1 {
		t.Fatalf("rows after restart = %v, want only the committed one", got)
	}
}

// TestRestartWaitsForParkedCommit: a commit parked on its WAL sync when
// the shard crashes finishes before Restart rebuilds, so its delta
// lands exactly once and Restart returns only after it.
func TestRestartWaitsForParkedCommit(t *testing.T) {
	s, _ := walShard(t, 30*time.Millisecond)
	ctr := key(1, "ctr")
	if err := s.Prepare("seed", nil, []Mutation{putMut(1, "ctr", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("seed"); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare("inc", nil, []Mutation{{Kind: MutDeltaAttr, Key: ctr, Delta: AttrDelta{LinkCount: 1}}}); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- s.Commit("inc") }()
	parked := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.pendingSync > 0
	}
	for !parked() {
		time.Sleep(100 * time.Microsecond)
	}
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("parked commit: %v", err)
		}
	default:
		t.Fatal("Restart returned while a commit was still parked")
	}
	if r, ok := s.Get(ctr); !ok || r.Entry.Attr.LinkCount != 1 {
		t.Fatalf("counter after restart = %+v (ok=%v), want link count 1", r.Entry.Attr, ok)
	}
}

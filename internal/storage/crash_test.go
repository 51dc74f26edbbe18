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

// TestCrashVoidsParkedCommit: a crash keeps exactly the synced records,
// as raft's does. A commit parked on its WAL sync when the shard crashes
// fails with ErrUnavailable, leaves no lock, and is absent after a
// Restart that does not wait for it; a commit whose record was durable
// before the crash, but not yet applied, returns nil and is applied
// exactly once after Restart.
func TestCrashVoidsParkedCommit(t *testing.T) {
	ctr := key(1, "ctr")
	inc := []Mutation{{Kind: MutDeltaAttr, Key: ctr, Delta: AttrDelta{LinkCount: 1}}}
	// setup returns once "inc" is staged and parked on its sync; with
	// hold it returns holding the shard mutex, so the committer cannot
	// drain the record however long its sync has been done.
	setup := func(t *testing.T, hold bool) (*Shard, *WAL, <-chan error) {
		s, w := walShard(t, 30*time.Millisecond)
		if err := s.Prepare("seed", nil, []Mutation{putMut(1, "ctr", 1)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit("seed"); err != nil {
			t.Fatal(err)
		}
		if err := s.Prepare("inc", nil, inc); err != nil {
			t.Fatal(err)
		}
		committed := make(chan error, 1)
		go func() { committed <- s.Commit("inc") }()
		// Commit claims the txn and stages its record in one hold of the
		// shard mutex, then parks on the sync.
		for {
			s.mu.Lock()
			_, prepared := s.txns["inc"]
			if !prepared {
				if !hold {
					s.mu.Unlock()
				}
				return s, w, committed
			}
			s.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}
	links := func(t *testing.T, s *Shard) int64 {
		t.Helper()
		r, ok := s.Get(ctr)
		if !ok {
			t.Fatal("counter row lost")
		}
		return r.Entry.Attr.LinkCount
	}

	t.Run("parked", func(t *testing.T) {
		s, _, committed := setup(t, false)
		s.Crash()
		if err := s.Restart(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-committed:
			t.Fatalf("Restart waited for the parked commit (it returned %v)", err)
		default:
		}
		if got := links(t, s); got != 0 {
			t.Fatalf("counter after restart = %d, want 0: the unsynced commit survived", got)
		}
		if err := <-committed; !errors.Is(err, types.ErrUnavailable) {
			t.Fatalf("parked commit = %v, want ErrUnavailable", err)
		}
		if s.LockedKeys() != 0 {
			t.Fatalf("%d locks left after the voided commit", s.LockedKeys())
		}
		// Its sync has finished by now; the record must not have become
		// durable behind the crash.
		s.Crash()
		if err := s.Restart(); err != nil {
			t.Fatal(err)
		}
		if got := links(t, s); got != 0 {
			t.Fatalf("voided commit's record replayed: counter = %d", got)
		}
	})

	t.Run("durable", func(t *testing.T) {
		// Hold the shard mutex across the sync, so the record is durable
		// but its committer cannot drain it before the crash.
		s, w, committed := setup(t, true)
		for seq := s.queue[0].seq; w.DurableSeq() < seq; {
			time.Sleep(100 * time.Microsecond)
		}
		s.crashLocked()
		s.mu.Unlock()
		if err := <-committed; err != nil {
			t.Fatalf("durable commit = %v, want nil", err)
		}
		if err := s.Restart(); err != nil {
			t.Fatal(err)
		}
		if got := links(t, s); got != 1 {
			t.Fatalf("counter after restart = %d, want 1", got)
		}
		published := 0
		for _, r := range logged(t, w) {
			if r.h.TxnID == "inc" {
				published++
			}
		}
		if published != 1 {
			t.Fatalf("durable commit logged %d times, want 1", published)
		}
		if s.LockedKeys() != 0 {
			t.Fatalf("%d locks left after restart", s.LockedKeys())
		}
	})
}

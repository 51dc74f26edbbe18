package storage

import (
	"errors"
	"testing"

	"mantle/internal/types"
)

// TestLockTable pins the row-lock table's semantics: which requests a held
// lock admits, when a holder may upgrade, and that releasing every holder
// leaves no lock behind. Each step is one tryLock (or, with release set,
// one unlockAll) by txn on the same row.
func TestLockTable(t *testing.T) {
	const S, X = lockShared, lockExclusive
	type step struct {
		txn     string
		mode    lockMode
		ok      bool
		release bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"shared+shared", []step{{"a", S, true, false}, {"b", S, true, false}}},
		{"shared vs exclusive", []step{{"a", S, true, false}, {"b", X, false, false}}},
		{"exclusive vs shared", []step{{"a", X, true, false}, {"b", S, false, false}}},
		{"exclusive vs exclusive", []step{{"a", X, true, false}, {"b", X, false, false}}},
		{"re-entrant exclusive", []step{{"a", X, true, false}, {"a", S, true, false}, {"a", X, true, false}, {"b", S, false, false}}},
		{"upgrade as sole holder", []step{{"a", S, true, false}, {"a", X, true, false}, {"b", S, false, false}}},
		{"refused upgrade, two holders", []step{{"a", S, true, false}, {"b", S, true, false}, {"a", X, false, false}, {"c", S, true, false}}},
		{"release leaves the other holder", []step{{"a", S, true, false}, {"b", S, true, false}, {txn: "a", release: true}, {"b", X, true, false}, {"c", S, false, false}}},
		{"release frees the row", []step{{"a", X, true, false}, {txn: "a", release: true}, {"b", X, true, false}}},
	}
	k := key(1, "k")
	for _, c := range cases {
		s := NewShard("s0")
		held := map[string]bool{}
		s.mu.Lock()
		for i, st := range c.steps {
			if st.release {
				s.unlockAll(st.txn, []types.Key{k})
				delete(held, st.txn)
				continue
			}
			_, err := s.tryLock(st.txn, k, st.mode)
			if (err == nil) != st.ok {
				t.Errorf("%s: step %d (%s, mode %d): err = %v, want ok=%v", c.name, i, st.txn, st.mode, err, st.ok)
			}
			if err != nil && !errors.Is(err, types.ErrConflict) {
				t.Errorf("%s: step %d: %v is not a conflict", c.name, i, err)
			}
			if err == nil {
				held[st.txn] = true
			}
		}
		for txn := range held {
			s.unlockAll(txn, []types.Key{k})
		}
		s.mu.Unlock()
		if n := s.LockedKeys(); n != 0 {
			t.Errorf("%s: %d row locks left after every holder released", c.name, n)
		}
	}
}

// TestLockLifecycle runs the lock table through Prepare, Commit and Abort:
// a transaction that both guards and mutates a row (SetDirPerm's attribute
// row) records the row once and excludes other transactions from it; an
// exclusively locked anchor stalls compaction; commit and abort release
// everything.
func TestLockLifecycle(t *testing.T) {
	s := NewShard("s0")
	attr := key(9, "\x00attr")
	_ = s.Apply([]Mutation{putMut(9, "\x00attr", 90)})
	delta := putMut(9, "\x00attr\x00001", 0)
	delta.Entry.Attr.LinkCount = 1
	_ = s.Apply([]Mutation{delta})

	guard := []Guard{{Key: attr, Kind: GuardVersion, Version: 1}}
	if err := s.Prepare("perm", guard, []Mutation{putMut(9, "\x00attr", 90)}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.txns["perm"].locked); got != 1 {
		t.Fatalf("guarded and mutated row recorded %d times, want 1", got)
	}
	if n := s.LockedKeys(); n != 1 {
		t.Fatalf("LockedKeys = %d, want 1", n)
	}
	exists := []Guard{{Key: attr, Kind: GuardExists}}
	if err := s.Prepare("mk", exists, nil); !errors.Is(err, types.ErrConflict) {
		t.Fatalf("shared guard under an exclusive lock: %v, want conflict", err)
	}
	fold := func(p *types.Entry, d types.Entry) { p.Attr.LinkCount += d.Attr.LinkCount }
	if n := s.CompactRange(attr, key(9, "\x00attr\x00"), key(9, "\x01"), fold); n != 0 {
		t.Fatalf("compaction folded %d rows under an exclusively locked anchor", n)
	}
	s.Commit("perm")
	if n := s.LockedKeys(); n != 0 {
		t.Fatalf("LockedKeys after commit = %d", n)
	}

	if err := s.Prepare("mk", exists, nil); err != nil {
		t.Fatal(err)
	}
	if n := s.CompactRange(attr, key(9, "\x00attr\x00"), key(9, "\x01"), fold); n != 1 {
		t.Fatalf("compaction under a shared anchor lock folded %d, want 1", n)
	}
	s.Abort("mk")
	if n := s.LockedKeys(); n != 0 {
		t.Fatalf("LockedKeys after abort = %d", n)
	}
}

// TestPrepareCommitAllocs holds a no-WAL Prepare+Commit that re-locks rows
// whose locks were recycled to zero allocations: the lock table, the
// staged-transaction record and the row update all reuse memory.
func TestPrepareCommitAllocs(t *testing.T) {
	s := NewShard("s0")
	_ = s.Apply([]Mutation{putMut(1, "parent", 1), putMut(2, "obj", 2)})
	guards := []Guard{{Key: key(1, "parent"), Kind: GuardExists}}
	muts := []Mutation{putMut(2, "obj", 3)}
	got := testing.AllocsPerRun(1000, func() {
		if err := s.Prepare("t", guards, muts); err != nil {
			t.Fatal(err)
		}
		s.Commit("t")
	})
	if got != 0 {
		t.Fatalf("Prepare+Commit allocates %.1f times, want 0", got)
	}
}

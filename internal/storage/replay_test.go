package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCrashReplayDeterminism drives concurrent transactional commits
// and relaxed applies through a group-committing WAL, crashes the
// shard, and verifies that Recover (a) replays exactly the durable
// mutation count, (b) reproduces the pre-crash contents byte for byte,
// and (c) is deterministic — a second crash/recover cycle lands on the
// same state. This is the regression net under the oplog hook in the
// commit path: the hook moved the WAL staging point under the shard
// mutex, and replay must still be commit-ordered.
func TestCrashReplayDeterminism(t *testing.T) {
	const (
		writers = 8
		perW    = 60
	)
	s, w := walShard(t, 30*time.Microsecond)
	// Seed contended rows so DeltaAttr increments from different
	// writers interleave — the case where replay order matters.
	for i := 0; i < 4; i++ {
		if err := s.Apply([]Mutation{putMut(1, fmt.Sprintf("ctr%d", i), uint64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	var committedMuts atomic.Int64
	committedMuts.Add(4) // the seeds above went through the WAL too
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perW; i++ {
				txn := fmt.Sprintf("t%d-%d", g, i)
				muts := []Mutation{
					{Kind: MutDeltaAttr, Key: key(1, fmt.Sprintf("ctr%d", rng.Intn(4))),
						Delta: AttrDelta{LinkCount: 1, Size: int64(g + 1)}},
					putMut(uint64(2+g), fmt.Sprintf("row%03d", i), uint64(i)),
				}
				if err := s.Prepare(txn, nil, muts); err != nil {
					i-- // lock conflict on the counter row: retry
					continue
				}
				s.Commit(txn)
				committedMuts.Add(int64(len(muts)))
			}
		}(g)
	}
	wg.Wait()

	before := dumpRows(s)
	durable := w.DurableSeq()
	if _, applied := s.SnapshotRows(); applied != durable {
		t.Fatalf("quiesced shard has applied=%d durable=%d", applied, durable)
	}

	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	n := 0
	s.ReplayBatches(func(_ uint64, muts []Mutation) { n += len(muts) })
	if int64(n) != committedMuts.Load() {
		t.Fatalf("restart replayed %d mutations, committed %d", n, committedMuts.Load())
	}
	if got := dumpRows(s); !equalRows(got, before) {
		t.Fatalf("recovered state diverges:\n got %d rows\nwant %d rows", len(got), len(before))
	}
	// Determinism: replaying the same log again reproduces the same state.
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := dumpRows(s); !equalRows(got, before) {
		t.Fatal("second recover diverges from first")
	}
}

// TestCommitOrderMatchesHookOrder verifies the ordering contract the
// replication oplog depends on: the sequence numbers handed to the
// repl hook are exactly the WAL batch sequence numbers, the hook sees
// them gap-free, and WAL replay yields the identical batch sequence —
// including under concurrent committers racing the group-commit window.
func TestCommitOrderMatchesHookOrder(t *testing.T) {
	s, _ := walShard(t, 20*time.Microsecond)
	var mu sync.Mutex
	type batch struct {
		seq  uint64
		muts []Mutation
	}
	var hooked []batch
	s.SetReplHook(func(seq uint64, _ string, muts []Mutation) {
		cp := make([]Mutation, len(muts))
		copy(cp, muts)
		mu.Lock()
		hooked = append(hooked, batch{seq, cp})
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				txn := fmt.Sprintf("h%d-%d", g, i)
				muts := []Mutation{putMut(uint64(10+g), fmt.Sprintf("r%03d", i), uint64(i))}
				if err := s.Prepare(txn, nil, muts); err != nil {
					t.Error(err)
					return
				}
				s.Commit(txn)
			}
		}(g)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	seen := make(map[uint64][]Mutation, len(hooked))
	for _, b := range hooked {
		if _, dup := seen[b.seq]; dup {
			t.Fatalf("hook saw seq %d twice", b.seq)
		}
		seen[b.seq] = b.muts
	}
	for seq := uint64(1); seq <= uint64(len(hooked)); seq++ {
		if _, ok := seen[seq]; !ok {
			t.Fatalf("hook sequence has a gap at %d", seq)
		}
	}
	replayed := 0
	s.ReplayBatches(func(seq uint64, muts []Mutation) {
		replayed++
		want, ok := seen[seq]
		if !ok {
			t.Fatalf("WAL batch %d never reached the hook", seq)
		}
		if len(want) != len(muts) {
			t.Fatalf("batch %d: WAL has %d muts, hook saw %d", seq, len(muts), len(want))
		}
		for i := range muts {
			if muts[i].Key != want[i].Key || muts[i].Kind != want[i].Kind {
				t.Fatalf("batch %d mutation %d: WAL %v/%v vs hook %v/%v",
					seq, i, muts[i].Kind, muts[i].Key, want[i].Kind, want[i].Key)
			}
		}
	})
	if replayed != len(hooked) {
		t.Fatalf("WAL replayed %d batches, hook saw %d", replayed, len(hooked))
	}
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/clock"
)

// TestCrashReplayDeterminism drives concurrent transactional commits
// and relaxed applies through a group-committing WAL, crashes the
// shard, and verifies that Recover (a) replays exactly the durable
// mutation count, (b) reproduces the pre-crash contents byte for byte,
// and (c) is deterministic — a second crash/recover cycle lands on the
// same state. The shard stages its WAL records under its mutex, and
// replay must still be commit-ordered.
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
	for _, r := range logged(t, w) {
		n += len(r.muts)
	}
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

// TestCommitOrderIsLogOrder verifies the ordering contract a site link
// reads the log by: under concurrent committers racing the group-commit
// window, the durable records are gap-free from 1, each commit appears
// once with its transaction's header and mutations, every committer's
// records follow its program order, and the HLC stamped at staging
// strictly increases along the log.
func TestCommitOrderIsLogOrder(t *testing.T) {
	s, w := walShard(t, 20*time.Microsecond)
	s.SetClock(clock.New(1))
	const goroutines, each = 6, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txn := fmt.Sprintf("h%d-%d", g, i)
				muts := []Mutation{putMut(uint64(10+g), fmt.Sprintf("r%03d", i), uint64(i))}
				if err := s.Prepare(txn, nil, muts); err != nil {
					t.Error(err)
					return
				}
				if err := s.Commit(txn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	recs := logged(t, w)
	if len(recs) != goroutines*each {
		t.Fatalf("log holds %d records, want %d", len(recs), goroutines*each)
	}
	next := make([]int, goroutines) // each committer's next expected i
	for n, r := range recs {
		if r.seq != uint64(n+1) {
			t.Fatalf("record %d has seq %d: the log has a gap", n, r.seq)
		}
		if n > 0 && !recs[n-1].h.HLC.Less(r.h.HLC) {
			t.Fatalf("seq %d: HLC %v does not exceed its predecessor's %v", r.seq, r.h.HLC, recs[n-1].h.HLC)
		}
		var g, i int
		if _, err := fmt.Sscanf(r.h.TxnID, "h%d-%d", &g, &i); err != nil || r.h.Pieces != 1 {
			t.Fatalf("seq %d: header %+v", r.seq, r.h)
		}
		if i != next[g] {
			t.Fatalf("seq %d: %s logged out of its committer's order (want i=%d)", r.seq, r.h.TxnID, next[g])
		}
		next[g]++
		want := key(uint64(10+g), fmt.Sprintf("r%03d", i))
		if len(r.muts) != 1 || r.muts[0].Key != want {
			t.Fatalf("seq %d (%s): mutations %v, want one on %v", r.seq, r.h.TxnID, r.muts, want)
		}
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

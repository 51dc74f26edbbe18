package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mantle/internal/types"
)

// TestWALGroupCommitWaiterDurability is the race-detector stress for the
// group-commit waiter protocol: many concurrent committers, each of
// which must observe its own record durable the moment Commit returns
// (DurableSeq is monotonic, so >= its sequence means its batch's fsync
// completed), and the sync accounting must balance exactly — every sync
// is classified solo or group, and the covered-batch total equals the
// number of batches made durable.
func TestWALGroupCommitWaiterDurability(t *testing.T) {
	w := NewWAL(200 * time.Microsecond)
	const goroutines, each = 32, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := w.Commit(encodeBatch([]Mutation{putMut(uint64(g+1), fmt.Sprintf("k%d", i), uint64(i))}))
				if d := w.DurableSeq(); d < seq {
					t.Errorf("Commit returned seq %d but DurableSeq = %d", seq, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := w.Stats()
	if st.Syncs != st.SoloSyncs+st.GroupSyncs {
		t.Fatalf("syncs = %d, solo %d + group %d = %d",
			st.Syncs, st.SoloSyncs, st.GroupSyncs, st.SoloSyncs+st.GroupSyncs)
	}
	if want := int64(goroutines * each); st.Covered != want {
		t.Fatalf("covered batches = %d, want %d", st.Covered, want)
	}
	if got := int64(w.Batches()); st.Covered != got {
		t.Fatalf("covered = %d but WAL holds %d batches", st.Covered, got)
	}
	// With 32 writers against a 200µs sync, coalescing must happen: the
	// fsync count has to come in under one per batch.
	if st.Syncs >= int64(goroutines*each) {
		t.Fatalf("syncs = %d for %d batches; group commit ineffective", st.Syncs, goroutines*each)
	}
	if st.GroupSyncs == 0 {
		t.Fatal("no grouped syncs under 32-way concurrency")
	}
}

// TestWALGroupCommitReplayUnderStress crashes a shard whose WAL was fed
// by concurrent group-committed transactions and checks replay restores
// exactly the committed rows.
func TestWALGroupCommitReplayUnderStress(t *testing.T) {
	s, w := walShard(t, 100*time.Microsecond)
	const goroutines, each = 12, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txn := fmt.Sprintf("g%d-%d", g, i)
				if err := s.Prepare(txn, nil, []Mutation{
					putMut(uint64(g+1), fmt.Sprintf("k%d", i), uint64(g*1000+i)),
				}); err != nil {
					t.Error(err)
					return
				}
				s.Commit(txn)
			}
		}(g)
	}
	wg.Wait()
	if w.Syncs() >= goroutines*each {
		t.Fatalf("syncs = %d; group commit ineffective", w.Syncs())
	}
	before := dumpRows(s)
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before) != fmt.Sprint(dumpRows(s)) {
		t.Fatal("group-committed state does not replay exactly")
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			if _, ok := s.Get(types.Key{Pid: types.InodeID(g + 1), Name: fmt.Sprintf("k%d", i)}); !ok {
				t.Fatalf("row g%d/k%d lost after replay", g, i)
			}
		}
	}
}

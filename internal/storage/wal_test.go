package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mantle/internal/types"
)

func walShard(t *testing.T, syncCost time.Duration) (*Shard, *WAL) {
	t.Helper()
	s := NewShard("w0")
	w := NewWAL(syncCost)
	s.AttachWAL(w)
	return s, w
}

// dumpRows flattens a shard for comparison.
func dumpRows(s *Shard) []string {
	var out []string
	s.Scan(types.Key{}, types.Key{Pid: ^types.InodeID(0), Name: "\xff"}, func(r Row) bool {
		out = append(out, fmt.Sprintf("%s=%d/%d/%d", types.Key{Pid: r.Entry.Pid, Name: r.Entry.Name},
			r.Entry.ID, r.Entry.Attr.LinkCount, r.Entry.Attr.Size))
		return true
	})
	return out
}

func TestWALCrashRecovery(t *testing.T) {
	s, _ := walShard(t, 0)
	// Committed transactions survive; an uncommitted prepare does not.
	for i := 0; i < 20; i++ {
		txn := fmt.Sprintf("t%d", i)
		if err := s.Prepare(txn, nil, []Mutation{putMut(1, fmt.Sprintf("k%02d", i), uint64(i))}); err != nil {
			t.Fatal(err)
		}
		s.Commit(txn)
	}
	if err := s.Prepare("uncommitted", nil, []Mutation{putMut(2, "lost", 99)}); err != nil {
		t.Fatal(err)
	}
	// Mix in deletes and delta updates.
	if err := s.Prepare("del", nil, []Mutation{{Kind: MutDelete, Key: key(1, "k03"), MustExist: true}}); err != nil {
		t.Fatal(err)
	}
	s.Commit("del")
	if err := s.Prepare("delta", nil, []Mutation{{
		Kind: MutDeltaAttr, Key: key(1, "k05"), Delta: AttrDelta{LinkCount: 7, Size: 70}, MustExist: true,
	}}); err != nil {
		t.Fatal(err)
	}
	s.Commit("delta")

	before := dumpRows(s)
	s.Crash()
	if s.Len() != 0 {
		t.Fatal("crash kept rows")
	}
	if err := s.Restart(); err != nil || s.Len() != len(before) {
		t.Fatalf("restart replayed %d rows of %d: %v", s.Len(), len(before), err)
	}
	after := dumpRows(s)
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("recovery mismatch:\nbefore %v\nafter  %v", before, after)
	}
	if _, ok := s.Get(key(2, "lost")); ok {
		t.Fatal("uncommitted prepare survived the crash")
	}
	// The shard is usable after recovery.
	if err := s.Prepare("post", nil, []Mutation{putMut(3, "new", 1)}); err != nil {
		t.Fatal(err)
	}
	s.Commit("post")
}

func TestWALGroupCommit(t *testing.T) {
	s, w := walShard(t, 2*time.Millisecond)
	const goroutines, each = 16, 10
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txn := fmt.Sprintf("g%d-%d", g, i)
				if err := s.Prepare(txn, nil, []Mutation{
					putMut(uint64(g+10), fmt.Sprintf("k%d", i), uint64(g*100+i)),
				}); err != nil {
					t.Error(err)
					return
				}
				s.Commit(txn)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	syncs := w.Syncs()
	if syncs >= goroutines*each {
		t.Fatalf("syncs = %d; group commit ineffective", syncs)
	}
	if w.Batches() != goroutines*each {
		t.Fatalf("batches = %d, want %d", w.Batches(), goroutines*each)
	}
	// Without grouping, 160 syncs at 2ms serialised would need >= 320ms.
	if elapsed > 250*time.Millisecond {
		t.Fatalf("group commit took %v (syncs=%d)", elapsed, syncs)
	}
	// Recovery still exact.
	before := dumpRows(s)
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before) != fmt.Sprint(dumpRows(s)) {
		t.Fatal("group-committed state does not replay")
	}
}

func TestWALRandomizedRecoveryModel(t *testing.T) {
	// Random committed workload; after any crash point the replayed
	// state equals the model of committed operations.
	s, _ := walShard(t, 0)
	model := map[types.Key]uint64{}
	r := rand.New(rand.NewSource(11))
	for step := 0; step < 2000; step++ {
		k := key(uint64(r.Intn(8)), fmt.Sprintf("n%d", r.Intn(32)))
		txn := fmt.Sprintf("s%d", step)
		if r.Intn(3) == 0 {
			_, exists := model[k]
			if !exists {
				continue
			}
			if err := s.Prepare(txn, nil, []Mutation{{Kind: MutDelete, Key: k, MustExist: true}}); err != nil {
				t.Fatal(err)
			}
			s.Commit(txn)
			delete(model, k)
		} else {
			m := putMut(uint64(k.Pid), k.Name, uint64(step))
			if err := s.Prepare(txn, nil, []Mutation{m}); err != nil {
				t.Fatal(err)
			}
			s.Commit(txn)
			model[k] = uint64(step)
		}
	}
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(model) {
		t.Fatalf("recovered %d rows, model has %d", s.Len(), len(model))
	}
	for k, id := range model {
		row, ok := s.Get(k)
		if !ok || uint64(row.Entry.ID) != id {
			t.Fatalf("row %v = %+v ok=%v want id %d", k, row.Entry, ok, id)
		}
	}
}

func TestRecoverWithoutWAL(t *testing.T) {
	s := NewShard("plain")
	_ = s.Apply([]Mutation{putMut(1, "a", 1)})
	if err := s.Restart(); err == nil {
		t.Fatal("restart without WAL succeeded")
	}
	if _, ok := s.Get(key(1, "a")); !ok || s.Len() != 1 {
		t.Fatalf("a refused restart changed the rows: %d", s.Len())
	}
}

// TestWALCrashKeepsOnlySynced: a crash keeps exactly what a completed
// sync covered. A staged record is lost, so is a group whose sync is in
// flight, and every committer parked behind that sync is released;
// numbering resumes after the durable prefix.
func TestWALCrashKeepsOnlySynced(t *testing.T) {
	w := NewWAL(100 * time.Millisecond)
	kept := w.Commit([]byte("kept"))
	inFlight := w.Stage([]byte("in-flight"))
	done := make(chan struct{})
	go func() {
		w.WaitDurable(inFlight) // leads the 100 ms sync
		close(done)
	}()
	waitWAL(w, func() bool { return w.syncing })
	parked := w.Stage([]byte("parked"))
	released := make(chan struct{})
	go func() {
		w.WaitDurable(parked) // parks behind the in-flight sync
		close(released)
	}()
	waitWAL(w, func() bool { return len(w.waiters) == 1 })
	w.Crash()
	<-released
	<-done
	if d := w.DurableSeq(); d != kept {
		t.Fatalf("durable = %d after the crash, want %d", d, kept)
	}
	var got []string
	w.Replay(func(seq uint64, rec []byte) { got = append(got, fmt.Sprintf("%d:%s", seq, rec)) })
	if fmt.Sprint(got) != "[1:kept]" {
		t.Fatalf("replay after crash = %v, want [1:kept]", got)
	}
	if next := w.Commit([]byte("next")); next != kept+1 {
		t.Fatalf("first record after the crash got seq %d, want %d", next, kept+1)
	}
	if st := w.Stats(); st.Syncs != st.SoloSyncs+st.GroupSyncs {
		t.Fatalf("stats unbalanced after a crash: %+v", st)
	}
}

// waitWAL polls until cond, read under w's mutex, holds: a state to
// reach without sleeping a guessed time against the sync cost.
func waitWAL(w *WAL, cond func() bool) {
	for {
		w.mu.Lock()
		ok := cond()
		w.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// loggedRecord is one durable WAL record of a shard, decoded.
type loggedRecord struct {
	seq  uint64
	h    RecordHeader
	muts []Mutation
}

// logged decodes every durable record of w in sequence order.
func logged(t *testing.T, w *WAL) []loggedRecord {
	t.Helper()
	var out []loggedRecord
	w.Replay(func(seq uint64, rec []byte) {
		r := loggedRecord{seq: seq}
		var err error
		if r.h, err = DecodeRecord(rec, func(m Mutation) { r.muts = append(r.muts, m) }); err != nil {
			t.Fatalf("record %d: %v", seq, err)
		}
		out = append(out, r)
	})
	return out
}

// TestWALReadFrom pins what a site link reads: durable records only, in
// order and at most max of them; a crash's dropped suffix never shows,
// and its sequence numbers serve the records staged after it; a read
// below the trimmed base reports the gap.
func TestWALReadFrom(t *testing.T) {
	w := NewWAL(100 * time.Millisecond)
	for i := 0; i < 5; i++ {
		w.Stage([]byte{byte('a' + i)})
	}
	w.WaitDurable(5) // one sync covers all five
	read := func(seq uint64, max int) (string, bool) {
		recs, ok := w.ReadFrom(seq, max)
		var b strings.Builder
		for _, r := range recs {
			b.Write(r)
		}
		return b.String(), ok
	}
	for _, c := range []struct {
		seq  uint64
		max  int
		want string
	}{{1, 2, "ab"}, {1, 0, "abcde"}, {4, 9, "de"}, {5, 1, "e"}, {6, 0, ""}} {
		if got, ok := read(c.seq, c.max); got != c.want || !ok {
			t.Fatalf("ReadFrom(%d, %d) = %q, %v; want %q", c.seq, c.max, got, ok, c.want)
		}
	}

	// A staged record, and one whose sync is in flight, are not read.
	f := w.Stage([]byte("f"))
	if got, _ := read(f, 0); got != "" {
		t.Fatalf("staged record read before its sync: %q", got)
	}
	synced := make(chan struct{})
	go func() {
		w.WaitDurable(f)
		close(synced)
	}()
	waitWAL(w, func() bool { return w.syncing })
	if got, _ := read(f, 0); got != "" {
		t.Fatalf("record read while its sync is in flight: %q", got)
	}
	<-synced
	if got, _ := read(f, 0); got != "f" {
		t.Fatalf("synced record = %q, want f", got)
	}

	// A crash drops the unsynced record; its number serves the next one.
	lost := w.Stage([]byte("lost"))
	w.Crash()
	if g := w.Commit([]byte("g")); g != lost {
		t.Fatalf("first record after the crash got seq %d, want the dropped %d", g, lost)
	}
	if got, ok := read(lost, 0); got != "g" || !ok {
		t.Fatalf("ReadFrom(%d) after the crash = %q, %v; want g", lost, got, ok)
	}

	w.Trim(4) // records 1..3 go
	for _, seq := range []uint64{1, 3} {
		if recs, ok := w.ReadFrom(seq, 0); ok || recs != nil {
			t.Fatalf("ReadFrom(%d) below the trimmed base = %q, %v; want a gap", seq, recs, ok)
		}
	}
	if got, ok := read(4, 0); got != "defg" || !ok {
		t.Fatalf("ReadFrom(4) after the trim = %q, %v; want defg", got, ok)
	}
}

// TestWALTrim drops the durable prefix before a record and keeps the
// numbering of what remains.
func TestWALTrim(t *testing.T) {
	w := NewWAL(0)
	for i := 0; i < 5; i++ {
		w.Commit([]byte{byte('a' + i)})
	}
	w.Stage([]byte("staged"))
	w.Trim(7) // not durable: nothing to stand for the prefix yet
	w.Trim(4)
	w.Trim(2) // already trimmed
	var got []string
	w.Replay(func(seq uint64, rec []byte) { got = append(got, fmt.Sprintf("%d:%s", seq, rec)) })
	if fmt.Sprint(got) != "[4:d 5:e]" || w.Batches() != 2 {
		t.Fatalf("after Trim(4) replay = %v (%d records), want [4:d 5:e]", got, w.Batches())
	}
}

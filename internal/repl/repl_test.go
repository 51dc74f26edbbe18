package repl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mantle/internal/clock"
	"mantle/internal/faults"
	"mantle/internal/netsim"
	"mantle/internal/storage"
	"mantle/internal/types"
)

func putRec(shard int, seq uint64, ts clock.Timestamp, pid uint64, name string, id uint64) Record {
	m := storage.Mutation{
		Kind:  storage.MutPut,
		Key:   types.Key{Pid: types.InodeID(pid), Name: name},
		Entry: types.Entry{Pid: types.InodeID(pid), Name: name, ID: types.InodeID(id), Kind: types.KindObject},
	}
	return Record{Shard: shard, Seq: seq, HLC: ts, Pieces: 1, Muts: []storage.Mutation{m}}
}

// sink collects applied batches per shard for assertion.
type sink struct {
	mu      sync.Mutex
	applied map[int][]storage.Mutation
}

func newSink() *sink { return &sink{applied: make(map[int][]storage.Mutation)} }

func (s *sink) apply(shard int, muts []storage.Mutation) error {
	s.mu.Lock()
	s.applied[shard] = append(s.applied[shard], muts...)
	s.mu.Unlock()
	return nil
}

func (s *sink) count(shard int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.applied[shard])
}

// values returns the entry IDs applied on shard, in apply order.
func (s *sink) values(shard int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.applied[shard]))
	for _, m := range s.applied[shard] {
		out = append(out, uint64(m.Entry.ID))
	}
	return out
}

func TestApplierOrderAndDedup(t *testing.T) {
	sk := newSink()
	a := NewApplier(2, 1, sk.apply)
	clk := clock.New(1)
	r1 := putRec(0, 1, clk.Now(), 1, "a", 10)
	r2 := putRec(0, 2, clk.Now(), 1, "b", 11)
	r3 := putRec(0, 3, clk.Now(), 1, "c", 12)
	// Out-of-order arrival: 3 buffers until 1 and 2 land.
	if err := a.Offer([]Record{r3}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 0 {
		t.Fatal("record 3 applied ahead of the frontier")
	}
	if err := a.Offer([]Record{r1, r2}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 3 {
		t.Fatalf("applied %d muts, want 3", sk.count(0))
	}
	// Redelivery of the whole window is dropped silently.
	if err := a.Offer([]Record{r1, r2, r3}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 3 {
		t.Fatalf("duplicates re-applied: %d muts", sk.count(0))
	}
	w := a.Watermarks()
	if w.Shards[0].AppliedSeq != 3 || w.Applied != 3 {
		t.Fatalf("watermarks %+v", w)
	}
}

func TestApplierLWWConflict(t *testing.T) {
	sk := newSink()
	a := NewApplier(2, 1, sk.apply)
	late := clock.Timestamp{Wall: 100, Logical: 0, Site: 1}
	early := clock.Timestamp{Wall: 50, Logical: 9, Site: 3}
	// Newer timestamp arrives first (lower seq); the older write to the
	// same key must be LWW-skipped even though its seq is higher.
	if err := a.Offer([]Record{putRec(0, 1, late, 1, "x", 10)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer([]Record{putRec(0, 2, early, 1, "x", 11)}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 1 {
		t.Fatalf("stale write applied: %d muts", sk.count(0))
	}
	w := a.Watermarks()
	if w.Conflicts != 1 {
		t.Fatalf("conflicts=%d, want 1", w.Conflicts)
	}
	if w.Shards[0].AppliedSeq != 2 {
		t.Fatal("LWW skip must still advance the frontier")
	}
	// Equal timestamps do not replace (Less is strict).
	if err := a.Offer([]Record{putRec(0, 3, late, 1, "x", 12)}); err != nil {
		t.Fatal(err)
	}
	if w := a.Watermarks(); w.Conflicts != 2 {
		t.Fatalf("equal-HLC write applied: conflicts=%d", w.Conflicts)
	}
}

// TestApplierFailedApplyKeepsRecord: a record whose apply fails (a down
// secondary shard) leaves no LWW stamp, so the link's re-offer lands it
// rather than skipping its write as a conflict with itself.
func TestApplierFailedApplyKeepsRecord(t *testing.T) {
	sk := newSink()
	calls := 0
	a := NewApplier(2, 1, func(shard int, muts []storage.Mutation) error {
		if calls++; calls == 1 {
			return types.ErrUnavailable
		}
		return sk.apply(shard, muts)
	})
	r := putRec(0, 1, clock.New(1).Now(), 1, "x", 10)
	if err := a.Offer([]Record{r}); err == nil {
		t.Fatal("the first offer's failed apply was not reported")
	}
	if err := a.Offer([]Record{r}); err != nil {
		t.Fatal(err)
	}
	w := a.Watermarks()
	if sk.count(0) != 1 || w.Muts != 1 || w.Conflicts != 0 || w.Shards[0].AppliedSeq != 1 {
		t.Fatalf("after re-offer: %d muts landed, watermarks %+v; want 1 mut, 0 conflicts, seq 1", sk.count(0), w)
	}
}

// TestApplierRunOneSync: single-piece records of one shard offered
// together land with one apply, so a secondary shard with a WAL pays one
// sync for the run, and the run filters as the records would one by one.
func TestApplierRunOneSync(t *testing.T) {
	sh := storage.NewShard("sec-0")
	wal := storage.NewWAL(0)
	sh.AttachWAL(wal)
	a := NewApplier(2, 1, func(_ int, muts []storage.Mutation) error { return sh.Apply(muts) })
	clk := clock.New(1)
	const n = 50
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, putRec(0, uint64(i+1), clk.Now(), 1, fmt.Sprintf("o%d", i), uint64(100+i)))
	}
	// A stale rewrite of o0 inside the run is skipped against the
	// run's own earlier stamp.
	stale := putRec(0, n+1, recs[0].HLC, 1, "o0", 999)
	recs = append(recs, stale)
	before := wal.Syncs()
	if err := a.Offer(recs); err != nil {
		t.Fatal(err)
	}
	if syncs := wal.Syncs() - before; syncs != 1 {
		t.Fatalf("%d records cost %d WAL syncs, want 1", len(recs), syncs)
	}
	w := a.Watermarks()
	if w.Applied != n+1 || w.Muts != n || w.Conflicts != 1 || w.Shards[0].AppliedSeq != n+1 {
		t.Fatalf("watermarks %+v", w)
	}
	if row, ok := sh.Get(types.Key{Pid: 1, Name: "o0"}); !ok || row.Entry.ID != 100 {
		t.Fatalf("o0 = %+v (present %v), want ID 100", row.Entry, ok)
	}
}

func TestApplierAtomicTxn(t *testing.T) {
	sk := newSink()
	a := NewApplier(2, 2, sk.apply)
	clk := clock.New(1)
	ts := clk.Now()
	p0 := putRec(0, 1, ts, 1, "dir", 10)
	p0.TxnID, p0.Pieces = "txn-1#0", 2
	p1 := putRec(1, 1, ts, 10, "..", 1)
	p1.TxnID, p1.Pieces = "txn-1#0", 2
	// Only one piece arrived: nothing applies, even though it sits at
	// shard 0's frontier.
	if err := a.Offer([]Record{p0}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 0 {
		t.Fatal("txn piece applied before all pieces arrived")
	}
	if w := a.Watermarks(); w.Pending != 1 {
		t.Fatalf("pending=%d", w.Pending)
	}
	if err := a.Offer([]Record{p1}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 1 || sk.count(1) != 1 {
		t.Fatalf("txn pieces applied %d/%d", sk.count(0), sk.count(1))
	}
	if w := a.Watermarks(); w.Pending != 0 {
		t.Fatal("pending txn not cleared after apply")
	}
}

// TestApplierTornTxnReofferAppliesOnce: a two-piece transaction whose
// second piece fails to apply after the first has landed is re-offered
// by the link. Only the failed piece lands again: the first piece's
// link-count delta, which no LWW stamp guards, counts once, and no
// applied mark is left stranded above a frontier.
func TestApplierTornTxnReofferAppliesOnce(t *testing.T) {
	sk := newSink()
	failed := false
	a := NewApplier(2, 2, func(shard int, muts []storage.Mutation) error {
		if shard == 1 && !failed {
			failed = true
			return types.ErrUnavailable
		}
		return sk.apply(shard, muts)
	})
	ts := clock.New(1).Now()
	delta := Record{Shard: 0, Seq: 1, HLC: ts, TxnID: "txn-1#0", Pieces: 2, Muts: []storage.Mutation{{
		Kind: storage.MutDeltaAttr, Key: types.Key{Pid: 1, Name: "/"}, Delta: storage.AttrDelta{LinkCount: 1},
	}}}
	put := putRec(1, 1, ts, 1, "dir", 10)
	put.TxnID, put.Pieces = "txn-1#0", 2
	recs := []Record{delta, put}
	if err := a.Offer(recs); err == nil {
		t.Fatal("the first offer's failed apply was not reported")
	}
	if err := a.Offer(recs); err != nil {
		t.Fatal(err)
	}
	if n := sk.count(0); n != 1 {
		t.Fatalf("the link-count delta landed %d times, want once", n)
	}
	w := a.Watermarks()
	if sk.count(1) != 1 || w.Applied != 2 || w.Pending != 0 {
		t.Fatalf("after re-offer: %d puts landed, watermarks %+v; want 1 put, Applied 2, Pending 0", sk.count(1), w)
	}
	for _, m := range w.Shards {
		if m.AppliedSeq != 1 || m.Ahead != 0 || m.Buffered != 0 {
			t.Fatalf("shard %d: %+v, want applied seq 1, nothing ahead or buffered", m.Shard, m)
		}
	}
}

func TestApplierTxnBehindSingleton(t *testing.T) {
	// A complete txn whose sibling piece sits past a not-yet-arrived
	// record must wait (the gap's keys are unknown); once the singleton
	// lands, both apply and the frontier is contiguous.
	sk := newSink()
	a := NewApplier(2, 2, sk.apply)
	clk := clock.New(1)
	ts := clk.Now()
	p0 := putRec(0, 2, ts, 1, "t", 10)
	p0.TxnID, p0.Pieces = "tx#0", 2
	p1 := putRec(1, 1, ts, 2, "t", 11)
	p1.TxnID, p1.Pieces = "tx#0", 2
	s0 := putRec(0, 1, clk.Now(), 1, "s", 12)
	if err := a.Offer([]Record{p0, p1}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 0 || sk.count(1) != 0 {
		t.Fatal("txn applied across a delivery gap")
	}
	if err := a.Offer([]Record{s0}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 2 || sk.count(1) != 1 {
		t.Fatalf("applied %d/%d after the gap closed", sk.count(0), sk.count(1))
	}
	w := a.Watermarks()
	if w.Shards[0].AppliedSeq != 2 || w.Shards[1].AppliedSeq != 1 {
		t.Fatalf("watermarks %+v", w)
	}
}

func TestApplierOppositeCommitOrders(t *testing.T) {
	// Two 2PC txns committed in opposite orders on two shards: T is
	// (shard0 seq1, shard1 seq2), U is (shard1 seq1, shard0 seq2). A
	// frontier-order-only applier deadlocks here; with disjoint keys the
	// sibling pieces may jump, and both txns must apply.
	sk := newSink()
	a := NewApplier(2, 2, sk.apply)
	clk := clock.New(1)
	tsT, tsU := clk.Now(), clk.Now()
	t0 := putRec(0, 1, tsT, 1, "t", 10)
	t1 := putRec(1, 2, tsT, 2, "t", 11)
	t0.TxnID, t0.Pieces = "T#0", 2
	t1.TxnID, t1.Pieces = "T#0", 2
	u0 := putRec(1, 1, tsU, 3, "u", 20)
	u1 := putRec(0, 2, tsU, 4, "u", 21)
	u0.TxnID, u0.Pieces = "U#0", 2
	u1.TxnID, u1.Pieces = "U#0", 2
	if err := a.Offer([]Record{t0, t1, u0, u1}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 2 || sk.count(1) != 2 {
		t.Fatalf("opposite-order txns stuck: applied %d/%d", sk.count(0), sk.count(1))
	}
	w := a.Watermarks()
	if w.Shards[0].AppliedSeq != 2 || w.Shards[1].AppliedSeq != 2 || w.Pending != 0 {
		t.Fatalf("watermarks %+v", w)
	}
}

func TestApplierJumpBlockedByKeyConflict(t *testing.T) {
	// Txn T's sibling piece on shard1 would jump over an incomplete txn
	// U's piece that writes the SAME key — the jump must wait, or the two
	// sites would interleave same-key mutations differently. After U
	// completes, both apply in shard1 sequence order: U's value first.
	sk := newSink()
	a := NewApplier(2, 2, sk.apply)
	clk := clock.New(1)
	tsU, tsT := clk.Now(), clk.Now()
	u0 := putRec(1, 1, tsU, 9, "k", 100)
	u1 := putRec(0, 2, tsU, 9, "other", 101)
	u0.TxnID, u0.Pieces = "U#0", 2
	u1.TxnID, u1.Pieces = "U#0", 2
	t0 := putRec(0, 1, tsT, 5, "t", 110)
	t1 := putRec(1, 2, tsT, 9, "k", 111)
	t0.TxnID, t0.Pieces = "T#0", 2
	t1.TxnID, t1.Pieces = "T#0", 2
	// T fully arrives; only U's conflicting shard1 piece has arrived.
	if err := a.Offer([]Record{u0, t0, t1}); err != nil {
		t.Fatal(err)
	}
	if sk.count(1) != 0 {
		t.Fatalf("txn jumped a same-key record: %d muts on shard1", sk.count(1))
	}
	if err := a.Offer([]Record{u1}); err != nil {
		t.Fatal(err)
	}
	if sk.count(0) != 2 || sk.count(1) != 2 {
		t.Fatalf("applied %d/%d after conflict cleared", sk.count(0), sk.count(1))
	}
	vals := sk.values(1)
	if len(vals) != 2 || vals[0] != 100 || vals[1] != 111 {
		t.Fatalf("shard1 same-key apply order %v, want [100 111]", vals)
	}
	if w := a.Watermarks(); w.Pending != 0 || w.Shards[1].AppliedSeq != 2 {
		t.Fatalf("watermarks %+v", w)
	}
}

func TestApplierFinalizeDiscards(t *testing.T) {
	sk := newSink()
	a := NewApplier(2, 1, sk.apply)
	clk := clock.New(1)
	// Gap at seq 1: record 2 can never apply.
	if err := a.Offer([]Record{putRec(0, 2, clk.Now(), 1, "x", 10)}); err != nil {
		t.Fatal(err)
	}
	if n := a.Finalize(); n != 1 {
		t.Fatalf("Finalize discarded %d, want 1", n)
	}
	if err := a.Offer([]Record{putRec(0, 1, clk.Now(), 1, "y", 11)}); err == nil {
		t.Fatal("Offer after Finalize must fail")
	}
	if n := a.Finalize(); n != 1 {
		t.Fatalf("second Finalize reported %d", n)
	}
}

// loggedShards builds n primary shards that log with a zero-cost WAL
// and stamp from one site clock, returning them and their logs.
func loggedShards(n int) ([]*storage.Shard, []*storage.WAL) {
	clk := clock.New(1)
	shards, logs := make([]*storage.Shard, n), make([]*storage.WAL, n)
	for i := range shards {
		shards[i], logs[i] = storage.NewShard(fmt.Sprintf("p%d", i)), storage.NewWAL(0)
		shards[i].AttachWAL(logs[i])
		shards[i].SetClock(clk)
	}
	return shards, logs
}

func TestLinkShipsAndSurvivesBlackhole(t *testing.T) {
	fab := netsim.NewFabric(netsim.Config{RTT: 0})
	node := netsim.NewNode("site-b", 0)
	inj := faults.New(7)
	inj.Attach(fab)

	shards, logs := loggedShards(2)
	sk := newSink()
	app := NewApplier(2, 2, sk.apply)

	link := StartLink(LinkConfig{
		Logs:     logs,
		Offer:    app.Offer,
		Fabric:   fab,
		Node:     node,
		SrcName:  "site-a",
		Interval: 200 * time.Microsecond,
		BatchMax: 8,
	})
	defer link.Stop()

	var seq [2]uint64
	commit := func(shard int, name string) {
		seq[shard]++
		if err := shards[shard].Apply([]storage.Mutation{{
			Kind:  storage.MutPut,
			Key:   types.Key{Pid: 1, Name: name},
			Entry: types.Entry{Pid: 1, Name: name, ID: types.InodeID(seq[shard]), Kind: types.KindObject},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		commit(i%2, fmt.Sprintf("pre%03d", i))
	}
	waitFor(t, time.Second, func() bool {
		w := app.Watermarks()
		return w.Shards[0].AppliedSeq == seq[0] && w.Shards[1].AppliedSeq == seq[1]
	})

	// Blackhole the secondary endpoint: commits accumulate as lag.
	inj.Blackhole("site-b")
	for i := 0; i < 20; i++ {
		commit(i%2, fmt.Sprintf("dark%03d", i))
	}
	waitFor(t, time.Second, func() bool { return link.Stats().Failures > 0 })
	st := link.Stats()
	if st.LagEntries != 20 {
		t.Fatalf("lag %d entries while blackholed, want 20", st.LagEntries)
	}
	var want int64
	for si, wal := range logs {
		recs, _ := wal.ReadFrom(seq[si]-9, 0)
		for _, r := range recs {
			want += int64(len(r))
		}
	}
	if st.LagBytes != want {
		t.Fatalf("lag %d bytes, want the %d bytes of the unacknowledged records", st.LagBytes, want)
	}

	// Heal: the link catches up from its acknowledged cursor.
	inj.Restore("site-b")
	waitFor(t, time.Second, func() bool {
		w := app.Watermarks()
		return w.Shards[0].AppliedSeq == seq[0] && w.Shards[1].AppliedSeq == seq[1]
	})
	if w := app.Watermarks(); w.Conflicts != 0 {
		t.Fatalf("conflicts on a single-writer stream: %d", w.Conflicts)
	}
	if st := link.Stats(); st.LagEntries != 0 || st.LagBytes != 0 || st.Gapped {
		t.Fatalf("after convergence: %+v", st)
	}
	if n := sk.count(0) + sk.count(1); n != 60 {
		t.Fatalf("secondary applied %d mutations, want 60", n)
	}
}

func TestLinkGapAfterOverTrim(t *testing.T) {
	fab := netsim.NewFabric(netsim.Config{})
	node := netsim.NewNode("b", 0)
	shards, logs := loggedShards(1)
	for i := 0; i < 5; i++ {
		if err := shards[0].Apply(nil); err != nil {
			t.Fatal(err)
		}
	}
	// Trim beyond any subscriber cursor before the link starts.
	logs[0].Trim(5)
	sk := newSink()
	app := NewApplier(2, 1, sk.apply)
	link := StartLink(LinkConfig{
		Logs: logs, Offer: app.Offer, Fabric: fab, Node: node,
		SrcName: "a", Interval: 100 * time.Microsecond,
	})
	defer link.Stop()
	waitFor(t, time.Second, func() bool { return link.Stats().Gapped })
	if st := link.Stats(); st.LagEntries != 5 || st.Shipped != 0 {
		t.Fatalf("gapped link: %+v, want 5 entries behind and nothing shipped", st)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition not reached before deadline")
}

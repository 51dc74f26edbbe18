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
	return Record{Shard: shard, Seq: seq, HLC: ts, Pieces: 1,
		Muts: []storage.Mutation{m}, Bytes: storage.BatchBytes([]storage.Mutation{m})}
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

func TestOplogReadTrim(t *testing.T) {
	var l Oplog
	clk := clock.New(1)
	for seq := uint64(1); seq <= 10; seq++ {
		l.Append(putRec(0, seq, clk.Now(), 1, fmt.Sprintf("n%d", seq), seq))
	}
	recs, ok := l.ReadFrom(1, 4)
	if !ok || len(recs) != 4 || recs[0].Seq != 1 || recs[3].Seq != 4 {
		t.Fatalf("ReadFrom(1,4) = %d recs ok=%v", len(recs), ok)
	}
	if n := l.Trim(6); n != 6 {
		t.Fatalf("Trim(6) dropped %d", n)
	}
	if _, ok := l.ReadFrom(3, 0); ok {
		t.Fatal("ReadFrom below base must report a gap")
	}
	recs, ok = l.ReadFrom(7, 0)
	if !ok || len(recs) != 4 || recs[0].Seq != 7 {
		t.Fatalf("ReadFrom(7) after trim = %d recs ok=%v", len(recs), ok)
	}
	if l.Tip() != 10 || l.Base() != 6 || l.Len() != 4 {
		t.Fatalf("tip=%d base=%d len=%d", l.Tip(), l.Base(), l.Len())
	}
	// Trimming past the tip clamps.
	if n := l.Trim(100); n != 4 {
		t.Fatalf("Trim(100) dropped %d", n)
	}
	if l.Bytes() != 0 {
		t.Fatalf("empty oplog retains %d bytes", l.Bytes())
	}
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

func TestSourceTxnStamping(t *testing.T) {
	s := NewSource(1, 2)
	s.StampTxn("t#0", 2)
	s.Commit(0, 1, "t#0", []storage.Mutation{{Kind: storage.MutPut, Key: types.Key{Pid: 1, Name: "a"}}})
	s.Commit(1, 1, "t#0", []storage.Mutation{{Kind: storage.MutPut, Key: types.Key{Pid: 2, Name: "b"}}})
	r0, _ := s.Log(0).ReadFrom(1, 0)
	r1, _ := s.Log(1).ReadFrom(1, 0)
	if len(r0) != 1 || len(r1) != 1 {
		t.Fatal("missing oplog records")
	}
	if r0[0].HLC != r1[0].HLC {
		t.Fatalf("txn pieces carry different HLCs: %v vs %v", r0[0].HLC, r1[0].HLC)
	}
	if r0[0].Pieces != 2 || r1[0].Pieces != 2 {
		t.Fatal("piece count not propagated")
	}
	// The stamp is consumed after all pieces commit.
	s.Commit(0, 2, "t#0", nil)
	r0, _ = s.Log(0).ReadFrom(2, 0)
	if r0[0].Pieces != 1 {
		t.Fatal("consumed stamp reused")
	}
	// ForgetTxn clears an aborted attempt's stamp.
	s.StampTxn("dead#0", 3)
	s.ForgetTxn("dead#0")
	s.Commit(0, 3, "dead#0", nil)
	r0, _ = s.Log(0).ReadFrom(3, 0)
	if r0[0].Pieces != 1 {
		t.Fatal("forgotten stamp still applied")
	}
}

func TestLinkShipsAndSurvivesBlackhole(t *testing.T) {
	fab := netsim.NewFabric(netsim.Config{RTT: 0})
	node := netsim.NewNode("site-b", 0)
	inj := faults.New(7)
	inj.Attach(fab)

	src := NewSource(1, 2)
	sk := newSink()
	app := NewApplier(2, 2, sk.apply)

	link := StartLink(LinkConfig{
		Source:   src,
		Offer:    app.Offer,
		Fabric:   fab,
		Node:     node,
		SrcName:  "site-a",
		Interval: 200 * time.Microsecond,
		BatchMax: 8,
	})
	defer link.Stop()

	commit := func(shard int, seq uint64, name string) {
		src.Commit(shard, seq, "", []storage.Mutation{{
			Kind:  storage.MutPut,
			Key:   types.Key{Pid: 1, Name: name},
			Entry: types.Entry{Pid: 1, Name: name, ID: types.InodeID(seq), Kind: types.KindObject},
		}})
	}
	var seq [2]uint64
	for i := 0; i < 40; i++ {
		sh := i % 2
		seq[sh]++
		commit(sh, seq[sh], fmt.Sprintf("pre%03d", i))
	}
	waitFor(t, time.Second, func() bool {
		w := app.Watermarks()
		return w.Shards[0].AppliedSeq == seq[0] && w.Shards[1].AppliedSeq == seq[1]
	})

	// Blackhole the secondary endpoint: commits accumulate as lag.
	inj.Blackhole("site-b")
	for i := 0; i < 20; i++ {
		sh := i % 2
		seq[sh]++
		commit(sh, seq[sh], fmt.Sprintf("dark%03d", i))
	}
	time.Sleep(5 * time.Millisecond)
	st := link.Stats()
	if st.LagEntries == 0 {
		t.Fatal("no lag while blackholed")
	}
	if st.Failures == 0 {
		t.Fatal("no failures recorded while blackholed")
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
	if st := link.Stats(); st.LagEntries != 0 {
		t.Fatalf("lag %d after convergence", st.LagEntries)
	}

	// GC past the acknowledged watermark, then verify the link reports
	// no gap (cursor is ahead of the trim horizon).
	if n := src.GC(link.Acked()); n == 0 {
		t.Fatal("GC trimmed nothing")
	}
	time.Sleep(2 * time.Millisecond)
	if st := link.Stats(); st.Gapped {
		t.Fatal("GC at the acked watermark must not gap the link")
	}
}

func TestLinkGapAfterOverTrim(t *testing.T) {
	fab := netsim.NewFabric(netsim.Config{})
	node := netsim.NewNode("b", 0)
	src := NewSource(1, 1)
	for seq := uint64(1); seq <= 5; seq++ {
		src.Commit(0, seq, "", nil)
	}
	// Trim beyond any subscriber cursor before the link starts.
	src.Log(0).Trim(5)
	sk := newSink()
	app := NewApplier(2, 1, sk.apply)
	link := StartLink(LinkConfig{
		Source: src, Offer: app.Offer, Fabric: fab, Node: node,
		SrcName: "a", Interval: 100 * time.Microsecond,
	})
	defer link.Stop()
	waitFor(t, time.Second, func() bool { return link.Stats().Gapped })
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

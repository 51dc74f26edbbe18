package txn

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/types"
)

func testRig(nShards int) (*rpc.Caller, []*Participant) {
	fabric := netsim.NewLocalFabric()
	parts := make([]*Participant, nShards)
	for i := range parts {
		parts[i] = &Participant{
			Shard: storage.NewShard(fmt.Sprintf("s%d", i)),
			Node:  netsim.NewNode(fmt.Sprintf("n%d", i), 0),
		}
	}
	return rpc.NewCaller(fabric), parts
}

func put(pid uint64, name string, id uint64) storage.Mutation {
	return storage.Mutation{
		Kind: storage.MutPut,
		Key:  types.Key{Pid: types.InodeID(pid), Name: name},
		Entry: types.Entry{
			Pid: types.InodeID(pid), Name: name, ID: types.InodeID(id),
			Kind: types.KindObject, Perm: types.PermAll,
		},
	}
}

func TestSingleShardFastPath(t *testing.T) {
	caller, parts := testRig(1)
	op := caller.Begin()
	err := Direct{}.Run(op, "t1", []Piece{{P: parts[0], Muts: []storage.Mutation{put(1, "a", 10)}}})
	if err != nil {
		t.Fatal(err)
	}
	if op.RTTs() != 1 {
		t.Fatalf("fast path RTTs = %d, want 1", op.RTTs())
	}
	if _, ok := parts[0].Shard.Get(types.Key{Pid: 1, Name: "a"}); !ok {
		t.Fatal("row missing")
	}
}

func TestTwoPhaseCommitTwoShards(t *testing.T) {
	caller, parts := testRig(2)
	op := caller.Begin()
	err := Direct{}.Run(op, "t1", []Piece{
		{P: parts[0], Muts: []storage.Mutation{put(1, "a", 10)}},
		{P: parts[1], Muts: []storage.Mutation{put(2, "b", 20)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 prepares + 2 commits, but prepare/commit rounds overlap: 4 RTTs.
	if op.RTTs() != 4 {
		t.Fatalf("2PC RTTs = %d, want 4", op.RTTs())
	}
	if _, ok := parts[0].Shard.Get(types.Key{Pid: 1, Name: "a"}); !ok {
		t.Fatal("shard0 row missing")
	}
	if _, ok := parts[1].Shard.Get(types.Key{Pid: 2, Name: "b"}); !ok {
		t.Fatal("shard1 row missing")
	}
}

func TestPrepareFailureAbortsAll(t *testing.T) {
	caller, parts := testRig(2)
	// Pre-insert a row so an IfAbsent put on shard1 fails.
	_ = parts[1].Shard.Apply([]storage.Mutation{put(2, "b", 99)})
	conflicting := put(2, "b", 20)
	conflicting.IfAbsent = true
	op := caller.Begin()
	err := Direct{}.Run(op, "t1", []Piece{
		{P: parts[0], Muts: []storage.Mutation{put(1, "a", 10)}},
		{P: parts[1], Muts: []storage.Mutation{conflicting}},
	})
	if !errors.Is(err, types.ErrExists) {
		t.Fatalf("err = %v", err)
	}
	// Nothing applied on shard0; no locks leaked anywhere.
	if _, ok := parts[0].Shard.Get(types.Key{Pid: 1, Name: "a"}); ok {
		t.Fatal("partial commit on shard0")
	}
	if parts[0].Shard.LockedKeys() != 0 || parts[1].Shard.LockedKeys() != 0 {
		t.Fatal("locks leaked after abort")
	}
}

func TestConflictIsRetryable(t *testing.T) {
	caller, parts := testRig(1)
	// Hold a lock via an uncommitted prepare.
	if err := parts[0].Shard.Prepare("holder", nil, []storage.Mutation{put(1, "hot", 1)}); err != nil {
		t.Fatal(err)
	}
	op := caller.Begin()
	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunWithRetry(Direct{}, op, "t2", 50, time.Microsecond, time.Millisecond, nil,
			func(attempt int) ([]Piece, error) {
				attempts++
				return []Piece{{P: parts[0], Muts: []storage.Mutation{put(1, "hot", 2)}}}, nil
			})
		if err != nil {
			t.Errorf("RunWithRetry: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	parts[0].Shard.Commit("holder")
	<-done
	if attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", attempts)
	}
	r, _ := parts[0].Shard.Get(types.Key{Pid: 1, Name: "hot"})
	if r.Entry.ID != 2 {
		t.Fatalf("row = %+v", r)
	}
}

func TestRetryExhaustion(t *testing.T) {
	caller, parts := testRig(1)
	if err := parts[0].Shard.Prepare("holder", nil, []storage.Mutation{put(1, "hot", 1)}); err != nil {
		t.Fatal(err)
	}
	defer parts[0].Shard.Abort("holder")
	op := caller.Begin()
	retries, err := RunWithRetry(Direct{}, op, "t2", 3, 0, 0, nil, func(int) ([]Piece, error) {
		return []Piece{{P: parts[0], Muts: []storage.Mutation{put(1, "hot", 2)}}}, nil
	})
	if !errors.Is(err, types.ErrRetryExhausted) {
		t.Fatalf("err = %v", err)
	}
	if retries != 3 {
		t.Fatalf("retries = %d", retries)
	}
}

func TestBuildErrorAborts(t *testing.T) {
	caller, _ := testRig(1)
	op := caller.Begin()
	sentinel := errors.New("boom")
	_, err := RunWithRetry(Direct{}, op, "t", 5, 0, 0, nil, func(int) ([]Piece, error) {
		return nil, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentContendedCounter(t *testing.T) {
	// Many goroutines increment one row's link count through full
	// transactions with retry; result must be exact.
	caller, parts := testRig(2)
	dir := put(1, "d", 5)
	dir.Entry.Kind = types.KindDir
	_ = parts[0].Shard.Apply([]storage.Mutation{dir})

	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op := caller.Begin()
				_, err := RunWithRetry(Direct{}, op, fmt.Sprintf("c%d-%d", g, i), 10000,
					time.Microsecond, 100*time.Microsecond, nil,
					func(int) ([]Piece, error) {
						return []Piece{
							{P: parts[0], Muts: []storage.Mutation{{
								Kind: storage.MutDeltaAttr,
								Key:  types.Key{Pid: 1, Name: "d"},
								Delta: storage.AttrDelta{
									LinkCount: 1,
								},
								MustExist: true,
							}}},
							{P: parts[1], Muts: []storage.Mutation{
								put(100, fmt.Sprintf("o-%d-%d", g, i), uint64(g*1000+i)),
							}},
						}, nil
					})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	r, _ := parts[0].Shard.Get(types.Key{Pid: 1, Name: "d"})
	if r.Entry.Attr.LinkCount != goroutines*each {
		t.Fatalf("LinkCount = %d, want %d", r.Entry.Attr.LinkCount, goroutines*each)
	}
	if parts[0].Shard.LockedKeys() != 0 || parts[1].Shard.LockedKeys() != 0 {
		t.Fatal("locks leaked")
	}
}

// TestRunnersOneTable drives Direct and Batcher through the same
// commit / abort / conflict scenarios: both are the one round driver, so
// outcomes, RPC counts, lock hygiene and when then runs must agree.
func TestRunnersOneTable(t *testing.T) {
	dup := put(2, "b", 20)
	dup.IfAbsent = true
	holder := func(parts []*Participant) func() {
		if err := parts[1].Shard.Prepare("holder", nil, []storage.Mutation{put(2, "b", 1)}); err != nil {
			panic(err)
		}
		return func() { parts[1].Shard.Abort("holder") }
	}
	scenarios := []struct {
		name string
		// setup prepares shard state and returns a cleanup.
		setup   func(parts []*Participant) func()
		second  storage.Mutation // the piece on shard 1
		wantErr error
		applied bool // shard 0's row exists afterwards
		// retried runs through RunWithRetry, cleaning up before the second
		// attempt: the first attempt conflicts, the second commits.
		retried bool
	}{
		{name: "commit", second: put(2, "b", 20), applied: true},
		{
			name: "abort",
			setup: func(parts []*Participant) func() {
				_ = parts[1].Shard.Apply([]storage.Mutation{put(2, "b", 99)})
				return func() {}
			},
			second: dup, wantErr: types.ErrExists,
		},
		{name: "conflict", setup: holder, second: put(2, "b", 20), wantErr: types.ErrConflict},
		{name: "conflict-retried", setup: holder, second: put(2, "b", 20), applied: true, retried: true},
	}
	runners := map[string]func() Runner{
		"direct":  func() Runner { return Direct{} },
		"batcher": func() Runner { return NewBatcher(0) },
	}
	for rname, mk := range runners {
		for _, sc := range scenarios {
			t.Run(rname+"/"+sc.name, func(t *testing.T) {
				caller, parts := testRig(2)
				cleanup := func() {}
				if sc.setup != nil {
					cleanup = sc.setup(parts)
				}
				keys := []types.Key{{Pid: 1, Name: "a"}, {Pid: 2, Name: "b"}}
				pieces := func() []Piece {
					return []Piece{
						{P: parts[0], Muts: []storage.Mutation{put(1, "a", 10)}},
						{P: parts[1], Muts: []storage.Mutation{sc.second}},
					}
				}
				thens := 0
				then := func() {
					thens++
					// Every participant has prepared: each still holds the
					// transaction's locks, or — the commit round being in
					// flight alongside — has already committed its row
					// (checked second: a commit applies, then unlocks).
					for i, k := range keys {
						if parts[i].Shard.LockedKeys() == 0 {
							if _, ok := parts[i].Shard.Get(k); !ok {
								t.Errorf("then ran before participant %d prepared", i)
							}
						}
					}
				}
				op := caller.Begin()
				var err error
				wantRTTs := 4 // one prepare and one commit/abort RPC per participant
				if sc.retried {
					_, err = RunWithRetry(mk(), op, "t1", 1, 0, 0, then, func(attempt int) ([]Piece, error) {
						if attempt == 1 {
							cleanup()
						}
						return pieces(), nil
					})
					wantRTTs *= 2
				} else {
					err = mk().RunThen(op, "t1", pieces(), then)
				}
				if !errors.Is(err, sc.wantErr) {
					t.Fatalf("err = %v, want %v", err, sc.wantErr)
				}
				if op.RTTs() != wantRTTs {
					t.Fatalf("RTTs = %d, want %d", op.RTTs(), wantRTTs)
				}
				// then runs once for the attempt that prepared everywhere,
				// before Run returns, and never for one that did not.
				if want := map[bool]int{true: 1}[sc.applied]; thens != want {
					t.Fatalf("then ran %d times, want %d", thens, want)
				}
				if _, ok := parts[0].Shard.Get(keys[0]); ok != sc.applied {
					t.Fatalf("shard0 row present = %v, want %v", ok, sc.applied)
				}
				cleanup()
				if parts[0].Shard.LockedKeys() != 0 || parts[1].Shard.LockedKeys() != 0 {
					t.Fatal("locks leaked")
				}
			})
		}
	}
}

// A single-piece transaction runs then inside its one RPC, between the
// prepare and the commit: the row is locked and not yet visible, and the
// RPC count is that of a run without then.
func TestDirectSinglePieceThenInsideItsRPC(t *testing.T) {
	caller, parts := testRig(1)
	key := types.Key{Pid: 1, Name: "a"}
	run := func(name string, then func()) int {
		op := caller.Begin()
		piece := Piece{P: parts[0], Muts: []storage.Mutation{put(1, name, 10)}}
		if err := (Direct{}).RunThen(op, name, []Piece{piece}, then); err != nil {
			t.Fatal(err)
		}
		return op.RTTs()
	}
	without := run("b", nil)
	ran := false
	with := run("a", func() {
		ran = true
		if parts[0].Shard.LockedKeys() == 0 {
			t.Error("then ran without the transaction's lock held")
		}
		if _, ok := parts[0].Shard.Get(key); ok {
			t.Error("then ran after the commit")
		}
	})
	if !ran {
		t.Fatal("then never ran")
	}
	if with != without {
		t.Fatalf("RTTs with then = %d, without = %d", with, without)
	}
	if _, ok := parts[0].Shard.Get(key); !ok {
		t.Fatal("row missing after commit")
	}
}

// gate is a netsim fault hook that holds every node execution after the
// first free ones until released: a participant whose later RPCs park on
// a channel, not on a timer.
type gate struct {
	free    atomic.Int32
	release chan struct{}
}

func (g *gate) Edge(string, string) (time.Duration, error) { return 0, nil }

func (g *gate) Down(string) error {
	if g.free.Add(-1) < 0 {
		<-g.release
	}
	return nil
}

// A batched-2PC leader returns once its own batch has an outcome, handing
// the lead to the oldest queued transaction; it does not wait for the
// rounds of batches that arrived after it.
func TestBatcherLeaderReturnsBeforeLaterBatches(t *testing.T) {
	caller, parts := testRig(2)
	// Shard 1 executes the leader's prepare and commit, then parks
	// everything after — the follower batch's rounds — on the gate.
	g := &gate{release: make(chan struct{})}
	g.free.Store(2)
	parts[1].Node.SetFaults(g)
	b := NewBatcher(0)
	pieces := func(name string) []Piece {
		return []Piece{
			{P: parts[0], Muts: []storage.Mutation{put(1, name, 1)}},
			{P: parts[1], Muts: []storage.Mutation{put(2, name, 1)}},
		}
	}
	key, _ := signature(pieces("x"))
	queued := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		if grp := b.groups[key]; grp != nil {
			return len(grp.pending)
		}
		return 0
	}

	follower := make(chan error, 1)
	leader := make(chan error, 1)
	go func() {
		// The leader's then runs inside its rounds: start the follower
		// there and hold until it has queued behind this batch.
		leader <- b.RunThen(caller.Begin(), "lead", pieces("lead"), func() {
			go func() { follower <- b.Run(caller.Begin(), "next", pieces("next")) }()
			for queued() == 0 {
				runtime.Gosched()
			}
		})
	}()
	select {
	case err := <-leader:
		if err != nil {
			t.Fatalf("leader: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(g.release)
		t.Fatal("the leader is still running the rounds of the batch queued behind it")
	}
	select {
	case err := <-follower:
		t.Fatalf("the queued batch finished (%v) while its participant was gated", err)
	default:
	}
	close(g.release)
	if err := <-follower; err != nil {
		t.Fatalf("follower: %v", err)
	}
	if _, _, rounds := b.Stats(); rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rounds)
	}
	for _, name := range []string{"lead", "next"} {
		if _, ok := parts[1].Shard.Get(types.Key{Pid: 2, Name: name}); !ok {
			t.Fatalf("%s not committed", name)
		}
	}
	if parts[0].Shard.LockedKeys() != 0 || parts[1].Shard.LockedKeys() != 0 {
		t.Fatal("locks leaked")
	}
}

// The batch key names a participant set whatever the piece order, is built
// without allocating, and is refused to a transaction wider than it, which
// then runs unbatched.
func TestBatchKeyAllocs(t *testing.T) {
	caller, parts := testRig(3)
	on := func(ps ...*Participant) []Piece {
		pieces := make([]Piece, len(ps))
		for i, p := range ps {
			pieces[i] = Piece{P: p, Muts: []storage.Mutation{put(uint64(i+1), "w", 1)}}
		}
		return pieces
	}
	ab, _ := signature(on(parts[0], parts[1]))
	ba, _ := signature(on(parts[1], parts[0]))
	ac, _ := signature(on(parts[0], parts[2]))
	if ab != ba || ab == ac {
		t.Fatalf("keys: ab=%v ba=%v ac=%v", ab, ba, ac)
	}
	two := on(parts[1], parts[0])
	if n := testing.AllocsPerRun(100, func() { signature(two) }); n != 0 {
		t.Fatalf("building the batch key allocates %.0f times", n)
	}
	wide := on(parts...)
	if _, ok := signature(wide); ok {
		t.Fatal("a three-shard transaction got a batch key")
	}
	b := NewBatcher(0)
	if err := b.Run(caller.Begin(), "wide", wide); err != nil {
		t.Fatal(err)
	}
	if txns, _, _ := b.Stats(); txns != 0 {
		t.Fatalf("the batcher coordinated %d wide transactions, want 0", txns)
	}
	if _, ok := parts[2].Shard.Get(types.Key{Pid: 3, Name: "w"}); !ok {
		t.Fatal("wide transaction did not commit")
	}
}

func TestMerge(t *testing.T) {
	_, parts := testRig(3)
	a, b, c := parts[0], parts[1], parts[2]
	g := func(name string) storage.Guard {
		return storage.Guard{Key: types.Key{Pid: 1, Name: name}, Kind: storage.GuardExists}
	}
	m := func(name string) storage.Mutation { return put(1, name, 1) }
	cases := []struct {
		name string
		in   []Piece
		want []Piece
	}{
		{"empty", nil, nil},
		{"distinct", []Piece{{P: a, Muts: []storage.Mutation{m("x")}}, {P: b, Muts: []storage.Mutation{m("y")}}},
			[]Piece{{P: a, Muts: []storage.Mutation{m("x")}}, {P: b, Muts: []storage.Mutation{m("y")}}}},
		{"pair", []Piece{
			{P: a, Guards: []storage.Guard{g("g1")}, Muts: []storage.Mutation{m("x"), m("y")}},
			{P: a, Guards: []storage.Guard{g("g2")}, Muts: []storage.Mutation{m("z")}},
		}, []Piece{
			{P: a, Guards: []storage.Guard{g("g1"), g("g2")}, Muts: []storage.Mutation{m("x"), m("y"), m("z")}},
		}},
		{"first-seen order", []Piece{
			{P: b, Muts: []storage.Mutation{m("1")}},
			{P: a, Muts: []storage.Mutation{m("2")}},
			{P: b, Guards: []storage.Guard{g("g")}},
			{P: c, Muts: []storage.Mutation{m("3")}},
			{P: a, Muts: []storage.Mutation{m("4")}},
		}, []Piece{
			{P: b, Guards: []storage.Guard{g("g")}, Muts: []storage.Mutation{m("1")}},
			{P: a, Muts: []storage.Mutation{m("2"), m("4")}},
			{P: c, Muts: []storage.Mutation{m("3")}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Merge(tc.in)
			if len(got) != len(tc.want) {
				t.Fatalf("%d pieces, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i].P != tc.want[i].P || !reflect.DeepEqual(got[i].Guards, tc.want[i].Guards) ||
					!reflect.DeepEqual(got[i].Muts, tc.want[i].Muts) {
					t.Errorf("piece %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}

	// No duplicates: the same slice back, nothing allocated.
	distinct := []Piece{{P: a, Muts: []storage.Mutation{m("x")}}, {P: b}, {P: c}}
	if got := Merge(distinct); &got[0] != &distinct[0] || len(got) != 3 {
		t.Fatal("Merge copied a duplicate-free slice")
	}
	if n := testing.AllocsPerRun(100, func() { Merge(distinct) }); n != 0 {
		t.Fatalf("Merge of distinct participants allocates %.0f times", n)
	}

	// Merging never writes into a builder's arrays past their length.
	shared := make([]storage.Mutation, 1, 4)
	shared[0] = m("x")
	Merge([]Piece{{P: a, Muts: shared}, {P: a, Muts: []storage.Mutation{m("y")}}})
	if spare := shared[:2][1]; spare.Key.Name != "" {
		t.Fatalf("Merge scribbled on the builder's spare capacity: %+v", spare)
	}
}

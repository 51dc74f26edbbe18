package fsck

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/clock"
	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/repl"
	"mantle/internal/storage"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

func newSites(t *testing.T, shards int, walCost time.Duration) *core.Sites {
	t.Helper()
	return newSitesOf(t, tafdb.Config{Shards: shards, Delta: tafdb.DeltaAuto, WALSyncCost: walCost})
}

func newSitesOf(t *testing.T, db tafdb.Config) *core.Sites {
	t.Helper()
	s, err := core.NewSites(core.SitesConfig{
		Site: core.Config{
			TafDB: db,
			Index: indexnode.Config{Voters: 3, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
		},
		Link: repl.LinkConfig{Interval: 200 * time.Microsecond, BatchMax: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func waitConverged(t *testing.T, s *core.Sites, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		link := s.Link()
		w := s.Applier().Watermarks()
		if link != nil && link.Stats().LagEntries == 0 && w.Pending == 0 {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	link := s.Link()
	if link != nil {
		t.Fatalf("replication did not converge: lag=%+v watermarks=%+v",
			link.Stats(), s.Applier().Watermarks())
	}
	t.Fatal("replication did not converge: link stopped")
}

// TestDRSiteFailoverChaos is the disaster-recovery acceptance test: a
// write storm runs against the primary while the WAN link to the
// secondary is blackholed mid-storm; after the storm stops the link
// heals, replication drains, the secondary is promoted, and the two
// sites must hold byte-identical logical namespaces — zero lost or
// duplicated rows — with fsck clean on the promoted site.
func TestDRSiteFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	s := newSites(t, 4, 5*time.Microsecond)
	s.StartReplication()
	pri := s.Primary

	inj := faults.New(11)
	inj.Attach(s.WAN)

	const writers = 6
	for w := 0; w < writers; w++ {
		if _, err := pri.Mkdir(op(pri), fmt.Sprintf("/w%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pri.Mkdir(op(pri), "/shared"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := fmt.Sprintf("/w%d", w)
				switch i % 5 {
				case 0:
					_, _ = pri.Mkdir(op(pri), fmt.Sprintf("%s/d%04d", base, i))
				case 1:
					_, _ = pri.Create(op(pri), fmt.Sprintf("%s/o%04d", base, i), int64(i))
				case 2:
					// Contended cross-worker creates in one directory:
					// the delta-record path and 2PC both get exercised.
					_, _ = pri.Create(op(pri), fmt.Sprintf("/shared/s%d-%04d", w, i), 1)
				case 3:
					_, _ = pri.SetPerm(op(pri), base, types.Perm(1+i%7))
				case 4:
					if i > 5 {
						_, _ = pri.Delete(op(pri), fmt.Sprintf("%s/o%04d", base, i-4))
					}
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond)
	// Sever the WAN mid-storm: the primary keeps committing, the logs'
	// unshipped records become replication lag.
	inj.Blackhole(core.SecondaryReplName)
	time.Sleep(20 * time.Millisecond)
	if st := s.Link().Stats(); st.LagEntries == 0 {
		t.Fatal("no replication lag while the WAN is blackholed")
	}

	close(stop)
	wg.Wait()

	// Lag and conflict counters must be on the serving site's /metrics,
	// and the standby's own series beside them.
	var buf bytes.Buffer
	if err := pri.Metrics().Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"repl_lag_entries", "repl_lag_bytes", "repl_shipped",
		"repl_conflicts", "repl_applied", "repl_pending_txns", "standby_tafdb_rows"} {
		if !strings.Contains(buf.String(), "\n"+name+" ") {
			t.Fatalf("primary /metrics missing %s", name)
		}
	}

	// Heal and drain: every committed record reaches the secondary.
	inj.Restore(core.SecondaryReplName)
	waitConverged(t, s, 10*time.Second)

	rep := s.Failover()
	if rep.Discarded != 0 {
		t.Fatalf("drained failover discarded %d records", rep.Discarded)
	}
	if !s.Promoted() {
		t.Fatal("Failover did not promote")
	}
	if w := rep.Watermarks; w.Conflicts != 0 {
		t.Fatalf("single-writer replication saw %d LWW conflicts", w.Conflicts)
	}

	// Convergence: identical logical namespaces, zero lost/duplicated.
	if issues := CompareSites(pri, s.Secondary); len(issues) != 0 {
		t.Fatalf("sites diverged after drain+failover: %v", issues[:min(len(issues), 10)])
	}
	if r := Check(s.Secondary); !r.OK() {
		t.Fatalf("fsck on promoted secondary: %s\n%v", r, r.Issues[:min(len(r.Issues), 10)])
	}
	if r := Check(pri); !r.OK() {
		t.Fatalf("fsck on primary: %s", r)
	}

	// The promoted secondary serves writes.
	if _, err := s.Secondary.Mkdir(op(s.Secondary), "/after-failover"); err != nil {
		t.Fatalf("promoted secondary rejects writes: %v", err)
	}
	if _, err := s.Secondary.Lookup(op(s.Secondary), "/after-failover"); err != nil {
		t.Fatal(err)
	}
}

// TestDRUnderShardCrashes runs writers against a two-site deployment
// while one primary shard goes through crash/restart cycles through the
// injector. The link ships only what a shard's WAL has made durable,
// and a crash drops the unsynced suffix, so every acknowledged create
// and delete holds on the primary; once the link drains, both sites
// agree and fsck is clean on each.
func TestDRUnderShardCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	s := newSites(t, 2, 50*time.Microsecond)
	s.StartReplication()
	pri := s.Primary
	inj := faults.New(38)
	inj.Attach(pri.Caller().Fabric())

	const writers, perWriter, cycles = 4, 400, 60
	for w := 0; w < writers; w++ {
		if _, err := pri.Mkdir(op(pri), fmt.Sprintf("/c%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	// Per writer: acknowledged creates, acknowledged deletes, and
	// deletes whose outcome is unknown (they failed, maybe after landing).
	created := make([][]string, writers)
	deleted := make([][]string, writers)
	unsure := make([]map[string]bool, writers)
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		unsure[w] = map[string]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; len(created[w]) < perWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if n := len(created[w]); i%4 == 3 && n > 0 {
					victim := created[w][n-1]
					if unsure[w][victim] || slices.Contains(deleted[w], victim) {
						continue
					}
					if _, err := pri.Delete(op(pri), victim); err != nil {
						failed.Add(1)
						unsure[w][victim] = true
					} else {
						deleted[w] = append(deleted[w], victim)
					}
					continue
				}
				p := fmt.Sprintf("/c%d/o%d", w, i)
				if _, err := pri.Create(op(pri), p, int64(i)); err != nil {
					failed.Add(1)
				} else {
					created[w] = append(created[w], p)
				}
			}
		}(w)
	}
	shard := pri.DB().Shard(0)
	for c := 0; c < cycles; c++ {
		time.Sleep(time.Millisecond)
		inj.Crash(shard)
		time.Sleep(300 * time.Microsecond)
		if err := inj.Restart(shard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if failed.Load() == 0 {
		t.Fatal("no op failed: the crashes did not meet the load")
	}

	for w := range created {
		for _, p := range created[w] {
			_, err := pri.ObjStat(op(pri), p)
			switch {
			case slices.Contains(deleted[w], p):
				if !errors.Is(err, types.ErrNotFound) {
					t.Errorf("acknowledged delete of %s: stat = %v, want ErrNotFound", p, err)
				}
			case !unsure[w][p] && err != nil:
				t.Errorf("acknowledged create %s lost: %v", p, err)
			}
		}
	}
	waitConverged(t, s, 10*time.Second)
	s.Failover()
	if issues := CompareSites(pri, s.Secondary); len(issues) != 0 {
		t.Fatalf("sites diverged after shard crashes: %v", issues[:min(len(issues), 10)])
	}
	for name, m := range map[string]*core.Mantle{"primary": pri, "secondary": s.Secondary} {
		if r := Check(m); !r.OK() {
			t.Fatalf("fsck on the %s: %s\n%v", name, r, r.Issues[:min(len(r.Issues), 10)])
		}
	}
	t.Logf("%d ops failed across %d crash cycles", failed.Load(), cycles)
}

// TestDRSnapshotBootstrap populates the primary with >100K entries
// (through the logged fallback of Populate: a DR primary always has a
// WAL, which BulkLoad refuses), bootstraps the secondary from shard
// snapshots rather than catching it up from the logs, replicates a live
// write tail, and verifies fsck-clean convergence.
func TestDRSnapshotBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap test skipped in -short")
	}
	s := newSites(t, 4, 0)
	pri := s.Primary

	const (
		dirN = 200
		objN = 500 // per dir → 100K objects
	)
	dirs := make([]api.PopDir, 0, dirN)
	objects := make([]api.PopObject, 0, dirN*objN)
	for d := 0; d < dirN; d++ {
		id := types.InodeID(1000 + d)
		dirs = append(dirs, api.PopDir{
			Path: fmt.Sprintf("/d%03d", d), ID: id, Pid: types.RootID, Perm: types.PermAll,
		})
		for o := 0; o < objN; o++ {
			objects = append(objects, api.PopObject{
				Pid: id, Name: fmt.Sprintf("f%05d", o), Size: int64(o),
			})
		}
	}
	if err := pri.Populate(dirs, objects); err != nil {
		t.Fatal(err)
	}

	rows, err := s.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if rows < dirN*objN {
		t.Fatalf("bootstrap loaded %d rows, want >= %d", rows, dirN*objN)
	}

	// Live tail after the snapshot: replicated from the cut onward.
	s.StartReplication()
	for i := 0; i < 50; i++ {
		if _, err := pri.Mkdir(op(pri), fmt.Sprintf("/tail%02d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := pri.Create(op(pri), fmt.Sprintf("/tail%02d/obj", i), 1); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := pri.Delete(op(pri), fmt.Sprintf("/tail%02d/obj", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitConverged(t, s, 10*time.Second)

	s.Failover()
	if issues := CompareSites(pri, s.Secondary); len(issues) != 0 {
		t.Fatalf("bootstrap+tail diverged: %v", issues[:min(len(issues), 10)])
	}
	if r := Check(s.Secondary); !r.OK() {
		t.Fatalf("fsck on bootstrapped secondary: %s\n%v", r, r.Issues[:min(len(r.Issues), 10)])
	}
	// Spot-check a bootstrapped path resolves on the promoted site.
	if _, err := s.Secondary.Lookup(op(s.Secondary), "/d042"); err != nil {
		t.Fatalf("bootstrapped dir unresolvable on secondary: %v", err)
	}
}

// walkLogs decodes every durable record of each primary shard's WAL, in
// log order, handing fn the shard, sequence, header and mutations.
func walkLogs(t *testing.T, db *tafdb.DB, fn func(si int, seq uint64, h storage.RecordHeader, muts []storage.Mutation)) {
	t.Helper()
	for si := 0; si < db.Shards(); si++ {
		recs, ok := db.Shard(si).WAL().ReadFrom(1, 0)
		if !ok {
			t.Fatalf("shard %d: log trimmed", si)
		}
		for i, rec := range recs {
			var muts []storage.Mutation
			h, err := storage.DecodeRecord(rec, func(m storage.Mutation) { muts = append(muts, m) })
			if err != nil {
				t.Fatalf("shard %d record %d: %v", si, i+1, err)
			}
			fn(si, uint64(i+1), h, muts)
		}
	}
}

// TestDRShardLogsStampInOrder checks the one-log invariant the link
// ships by, after a storm of cross-shard mkdirs and directory renames:
// along each primary shard's WAL the HLC strictly increases — a shard
// stamps each record from the one site clock at staging, under the mutex
// that fixes its sequence number — and every record of one multi-piece
// transaction carries the same piece count, one record per piece. So
// per-key last-writer-wins order holds on the secondary without a stamp
// shared by a transaction's pieces.
func TestDRShardLogsStampInOrder(t *testing.T) {
	s := newSites(t, 4, 5*time.Microsecond)
	pri := s.Primary
	const writers, rounds = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d := fmt.Sprintf("/s%d-%d", w, i)
				_, _ = pri.Mkdir(op(pri), d)
				_, _ = pri.Create(op(pri), d+"/o", 1)
				_, _ = pri.Mkdir(op(pri), d+"/sub")
				_, _ = pri.DirRename(op(pri), d+"/sub", fmt.Sprintf("/r%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()

	type txnRecords struct{ pieces, records int }
	txns := map[string]*txnRecords{}
	prev := make([]clock.Timestamp, pri.DB().Shards())
	walkLogs(t, pri.DB(), func(si int, seq uint64, h storage.RecordHeader, _ []storage.Mutation) {
		if !prev[si].Less(h.HLC) {
			t.Fatalf("shard %d seq %d: HLC %v does not exceed its predecessor's %v", si, seq, h.HLC, prev[si])
		}
		prev[si] = h.HLC
		if h.Pieces <= 1 {
			return
		}
		tr := txns[h.TxnID]
		if tr == nil {
			tr = &txnRecords{pieces: h.Pieces}
			txns[h.TxnID] = tr
		}
		if h.Pieces != tr.pieces {
			t.Fatalf("txn %s: shard %d seq %d says %d pieces, another piece %d", h.TxnID, si, seq, h.Pieces, tr.pieces)
		}
		tr.records++
	})
	if len(txns) == 0 {
		t.Fatal("the storm logged no multi-piece transaction")
	}
	for id, tr := range txns {
		if tr.records != tr.pieces {
			t.Fatalf("txn %s: %d records logged for %d pieces", id, tr.records, tr.pieces)
		}
	}
}

// TestDRMigrationReplicates migrates a populated directory on a DR
// primary that batches its 2PC, keeps writing, and checks that the
// secondary converges. The migration's source piece only guards the
// moved rows, so its record is an empty batch; it must still carry the
// transaction ID and piece count, or the Applier never completes the
// migration's transaction.
func TestDRMigrationReplicates(t *testing.T) {
	for _, wal := range []time.Duration{0, 20 * time.Microsecond} {
		t.Run(fmt.Sprint("wal=", wal), func(t *testing.T) {
			s := newSitesOf(t, tafdb.Config{Shards: 4, Delta: tafdb.DeltaAuto, WALSyncCost: wal, Batch2PC: true})
			s.StartReplication()
			pri := s.Primary
			if _, err := pri.Mkdir(op(pri), "/hot"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if _, err := pri.Create(op(pri), fmt.Sprintf("/hot/o%02d", i), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			res, err := pri.Lookup(op(pri), "/hot")
			if err != nil {
				t.Fatal(err)
			}
			db := pri.DB()
			dir := res.Entry.ID
			src := db.ShardOf(dir)
			if n, err := db.MigrateDir(op(pri), dir, (src+1)%db.Shards()); err != nil || n < 20 {
				t.Fatalf("migrate: %d rows, %v", n, err)
			}
			for i := 0; i < 10; i++ {
				if _, err := pri.Create(op(pri), fmt.Sprintf("/hot/after%02d", i), 1); err != nil {
					t.Fatal(err)
				}
				if _, err := pri.Mkdir(op(pri), fmt.Sprintf("/cold%02d", i)); err != nil {
					t.Fatal(err)
				}
			}
			guardOnly := 0
			walkLogs(t, db, func(si int, _ uint64, h storage.RecordHeader, muts []storage.Mutation) {
				if si == src && len(muts) == 0 && h.TxnID != "" && h.Pieces == 2 {
					guardOnly++
				}
			})
			if guardOnly != 1 {
				t.Fatalf("source shard logged %d guard-only migration pieces, want 1", guardOnly)
			}

			waitConverged(t, s, 10*time.Second)
			rep := s.Failover()
			if w := rep.Watermarks; w.Pending != 0 || rep.Discarded != 0 || w.Conflicts != 0 {
				t.Fatalf("failover after the migration: pending %d, discarded %d, conflicts %d",
					w.Pending, rep.Discarded, w.Conflicts)
			}
			if issues := CompareSites(pri, s.Secondary); len(issues) != 0 {
				t.Fatalf("sites diverged after the migration: %v", issues[:min(len(issues), 10)])
			}
			for name, m := range map[string]*core.Mantle{"primary": pri, "secondary": s.Secondary} {
				if r := Check(m); !r.OK() {
					t.Fatalf("fsck on the %s: %s\n%v", name, r, r.Issues[:min(len(r.Issues), 10)])
				}
			}
			// Check and CompareSites walk rows, not routing: the promoted
			// secondary must also find the migrated directory through the
			// op path, on the shard its rows were replicated to.
			sec := s.Secondary
			if _, err := sec.ObjStat(op(sec), "/hot/o01"); err != nil {
				t.Fatalf("promoted secondary: objstat /hot/o01: %v", err)
			}
			if _, err := sec.DirStat(op(sec), "/hot"); err != nil {
				t.Fatalf("promoted secondary: dirstat /hot: %v", err)
			}
			if _, ents, err := sec.ReadDir(op(sec), "/hot"); err != nil || len(ents) != 30 {
				t.Fatalf("promoted secondary: readdir /hot = %d entries, %v; want 30", len(ents), err)
			}
		})
	}
}

// TestScrubOnline runs the intersecting scrubber against live traffic
// (transient in-flight states must not be reported), then seeds real
// damage and checks it persists through the intersection.
func TestScrubOnline(t *testing.T) {
	m := newMantle(t, tafdb.DeltaAuto)
	buildWorkload(t, m)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = m.Mkdir(op(m), fmt.Sprintf("/scrub-w%d-%d", w, i))
				_, _ = m.Create(op(m), fmt.Sprintf("/scrub-w%d-%d/obj", w, i), 1)
			}
		}(w)
	}
	rep := Scrub(m, 3)
	close(stop)
	wg.Wait()
	if !rep.OK() {
		t.Fatalf("online scrub flagged transient state: %v", rep.Issues)
	}

	// Real damage: delete a directory's TafDB access row out from under
	// the index. Every scrub round sees it.
	if _, err := m.Mkdir(op(m), "/damaged"); err != nil {
		t.Fatal(err)
	}
	corrupt(t, m, storage.Mutation{Kind: storage.MutDelete, Key: types.Key{Pid: types.RootID, Name: "damaged"}})
	rep = Scrub(m, 3)
	if rep.OK() {
		t.Fatal("scrub missed persistent damage")
	}
	found := false
	for _, is := range rep.Issues {
		if is.Name == "damaged" || strings.Contains(is.Why, "damaged") {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub issues do not mention the damaged row: %v", rep.Issues)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

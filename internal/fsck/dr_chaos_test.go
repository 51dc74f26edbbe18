package fsck

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/repl"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

func newSites(t *testing.T, shards int, walCost time.Duration) *core.Sites {
	t.Helper()
	s, err := core.NewSites(core.SitesConfig{
		Site: core.Config{
			TafDB: tafdb.Config{Shards: shards, Delta: tafdb.DeltaAuto, WALSyncCost: walCost},
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
// duplicated rows — with the oplog matching the durable WAL and fsck
// clean on the promoted site.
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
	// Sever the WAN mid-storm: the primary keeps committing, the oplog
	// backlog becomes replication lag.
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
	for _, name := range []string{"repl_lag_entries", "repl_lag_bytes", "repl_oplog_records", "repl_shipped",
		"repl_conflicts", "repl_applied", "repl_pending_txns", "standby_tafdb_rows"} {
		if !strings.Contains(buf.String(), "\n"+name+" ") {
			t.Fatalf("primary /metrics missing %s", name)
		}
	}

	// Heal and drain: every committed record reaches the secondary.
	inj.Restore(core.SecondaryReplName)
	waitConverged(t, s, 10*time.Second)

	// The oplog must agree with the durable WAL on every shard.
	if issues := VerifyOplog(pri.DB(), s.Source()); len(issues) != 0 {
		t.Fatalf("oplog/WAL divergence: %v", issues)
	}

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

// TestDRSnapshotBootstrap populates the primary with >100K entries via
// the bulk loader (which bypasses the oplog — exactly the state a new
// secondary cannot reach by log catch-up), bootstraps the secondary
// from shard snapshots, replicates a live write tail, and verifies
// fsck-clean convergence.
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

// TestVerifyOplogFlagsSeededDivergence seeds an oplog record that never
// committed and checks the verifier reports it.
func TestVerifyOplogFlagsSeededDivergence(t *testing.T) {
	s := newSites(t, 2, 2*time.Microsecond)
	pri := s.Primary
	for i := 0; i < 8; i++ {
		if _, err := pri.Mkdir(op(pri), fmt.Sprintf("/v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if issues := VerifyOplog(pri.DB(), s.Source()); len(issues) != 0 {
		t.Fatalf("clean deployment flagged: %v", issues)
	}
	// Seed a record the WAL never committed.
	log := s.Source().Log(0)
	log.Append(repl.Record{Shard: 0, Seq: log.Tip() + 1, Pieces: 1})
	issues := VerifyOplog(pri.DB(), s.Source())
	found := false
	for _, is := range issues {
		if is.Check == "oplog-extra" {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded phantom record not flagged: %v", issues)
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
	m.DB().DeleteRowDirect(types.RootID, "damaged")
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

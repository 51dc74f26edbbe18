package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/indexnode"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// TestMetricsOneSnapshotPerFamily: within one exposition a derived ratio is
// the ratio of the counts printed beside it, however many writes land while
// the scrape runs — each family is emitted from a single snapshot.
func TestMetricsOneSnapshotPerFamily(t *testing.T) {
	m := newTestMantle(t, func(c *Config) { c.TafDB.WALSyncCost, c.TafDB.Batch2PC = time.Microsecond, true })
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := m.Mkdir(op(m), fmt.Sprintf("/w%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)

	busy := map[string]bool{}
	for scrape := 0; scrape < 300; scrape++ {
		var buf bytes.Buffer
		if err := m.Metrics().Write(&buf); err != nil {
			t.Fatal(err)
		}
		v := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			name, val, _ := strings.Cut(line, " ")
			v[name], _ = strconv.ParseFloat(val, 64)
		}
		for _, r := range [][3]string{
			{"raft_batch_occupancy", "raft_batch_proposals", "raft_batch_appends"},
			{"wal_group_fanin", "wal_batches_covered", "wal_syncs"},
			{"txn_batch_fanin", "txn_batch_txns", "txn_batch_rounds"},
		} {
			if v[r[2]] == 0 {
				continue
			}
			busy[r[0]] = true
			if want := v[r[1]] / v[r[2]]; math.Abs(v[r[0]]-want) > 1e-9 {
				t.Fatalf("scrape %d: %s = %v beside %s %v / %s %v = %v",
					scrape, r[0], v[r[0]], r[1], v[r[1]], r[2], v[r[2]], want)
			}
		}
	}
	if len(busy) != 3 {
		t.Fatalf("ratios checked with a non-zero denominator: %v, want all three", busy)
	}
}

// oneOfEach runs every op kind once, so every family with scrape-time
// members (edges, hot keys) has one.
func oneOfEach(t *testing.T, m *Mantle) {
	t.Helper()
	for _, err := range []error{
		func() error { _, err := m.Mkdir(op(m), "/a"); return err }(),
		func() error { _, err := m.Mkdir(op(m), "/a/sub"); return err }(),
		func() error { _, err := m.Create(op(m), "/a/o", 1); return err }(),
		func() error { _, err := m.ObjStat(op(m), "/a/o"); return err }(),
		func() error { _, err := m.DirStat(op(m), "/a"); return err }(),
		func() error { _, err := m.Lookup(op(m), "/a/sub"); return err }(),
		func() error { _, _, err := m.ReadDir(op(m), "/a"); return err }(),
		func() error { _, _, _, err := m.ReadDirPage(op(m), "/a", "", 1); return err }(),
		func() error { _, err := m.SetPerm(op(m), "/a/sub", types.PermAll); return err }(),
		func() error { _, err := m.DirRename(op(m), "/a/sub", "/b"); return err }(),
		func() error { _, err := m.Delete(op(m), "/a/o"); return err }(),
		func() error { _, err := m.Rmdir(op(m), "/b"); return err }(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// families scrapes m and reduces the exposition to family → label key:
// label values dropped, a histogram's lines folded into its name, the op
// name collapsed to <op>, and everything under standby_ to one family.
func families(t *testing.T, m *Mantle) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^(\w+?)(?:_bucket|_sum|_count)?(?:\{(\w+)=.*\})? \S+$`)
	perOp := regexp.MustCompile(`^(ops|errors|retries|latency)_(` + strings.Join(opNames[:], "|") + `)$`)
	hists, out := map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if h, ok := strings.CutPrefix(line, "# TYPE "); ok {
			hists[strings.TrimSuffix(h, " histogram")] = true
			continue
		}
		f := sample.FindStringSubmatch(line)
		if f == nil {
			t.Fatalf("unparsable line %q", line)
		}
		name, label := f[1], f[2]
		if !hists[name] {
			name = line[:strings.IndexAny(line, "{ ")] // not a histogram: the suffix is part of the name
		} else if label == "le" {
			label = ""
		}
		if strings.HasPrefix(name, "standby_") {
			name, label = "standby_<family>", ""
		}
		out[perOp.ReplaceAllString(name, "${1}_<op>")] = label
	}
	return out
}

// TestMetricFamiliesDocumented: DESIGN.md §6's "Metric families" table is
// the set of families, with their labels, that a deployment with every
// optional plane on and a two-site pair expose — no more, no fewer.
func TestMetricFamiliesDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "**Metric families.**")
	if !ok {
		t.Fatal("DESIGN.md has no Metric families table")
	}
	table, _, _ = strings.Cut(table, "\n**")
	documented := map[string]string{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 5 || !strings.Contains(cells[1], "`") {
			continue
		}
		label := strings.Trim(cells[2], " `")
		if label == "—" || strings.HasPrefix(label, "as ") {
			label = ""
		}
		for _, name := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cells[1], -1) {
			documented[name[1]] = label
		}
	}

	fabric := netsim.NewLocalFabric()
	faults.New(1).Attach(fabric)
	full := newTestMantle(t, func(c *Config) { c.Fabric, c.ProxyCache = fabric, true })
	oneOfEach(t, full)
	sites, err := NewSites(SitesConfig{Site: full.cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sites.Stop)
	oneOfEach(t, sites.Primary)

	exposed := families(t, full)
	maps.Copy(exposed, families(t, sites.Primary))
	for name, label := range exposed {
		if doc, ok := documented[name]; !ok {
			t.Errorf("%s{%s} is exposed but not in DESIGN.md's table", name, label)
		} else if doc != label {
			t.Errorf("%s: label %q exposed, %q documented", name, label, doc)
		}
	}
	for name := range documented {
		if _, ok := exposed[name]; !ok {
			t.Errorf("%s is in DESIGN.md's table but no deployment exposes it", name)
		}
	}
}

// A failover between the primary's role check and the standby's
// rendering must not leak the replication family under standby_: one
// scrape reads the site role once. The flip is deterministic — a
// collector that runs inside the included standby registry, ahead of
// the Sites collector, promotes the secondary mid-scrape.
func TestStandbyScrapeReadsRoleOnce(t *testing.T) {
	sites, err := NewSites(SitesConfig{Site: Config{TafDB: tafdb.Config{Shards: 2}, Index: indexnode.Config{Voters: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sites.Stop)
	sites.Primary.stats, sites.Secondary.stats = metrics.NewRegistry(), metrics.NewRegistry()
	sites.Secondary.stats.Collect(func(*metrics.Emitter) { sites.Failover() })
	sites.registerMetrics()
	var b bytes.Buffer
	if err := sites.Primary.Metrics().Write(&b); err != nil {
		t.Fatal(err)
	}
	if !sites.Promoted() {
		t.Fatal("the scrape did not fail over")
	}
	if !regexp.MustCompile(`(?m)^repl_`).MatchString(b.String()) {
		t.Fatalf("the primary's scrape lost its own repl_ family:\n%s", b.String())
	}
	if strings.Contains(b.String(), "standby_repl_") {
		t.Fatalf("a failover mid-scrape leaked the standby's repl_ family:\n%s", b.String())
	}
}

// The raft logs' sync accounting is on /metrics from the same
// storage.WALStats type as TafDB's wal_*: with FsyncCost > 0 writes sync
// every replica's log, and the counts balance as the WAL's do.
func TestRaftWALMetrics(t *testing.T) {
	m := newTestMantle(t, func(c *Config) { c.Index.Raft.FsyncCost = 50 * time.Microsecond })
	oneOfEach(t, m)
	var b bytes.Buffer
	if err := m.Metrics().Write(&b); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "raft_wal_") {
			got[name], _ = strconv.ParseFloat(v, 64)
		}
	}
	for _, name := range []string{"raft_wal_syncs", "raft_wal_syncs_solo", "raft_wal_syncs_group", "raft_wal_records_covered", "raft_wal_group_fanin"} {
		if _, ok := got[name]; !ok {
			t.Errorf("%s missing from /metrics", name)
		}
	}
	if got["raft_wal_syncs"] == 0 || got["raft_wal_syncs"] != got["raft_wal_syncs_solo"]+got["raft_wal_syncs_group"] {
		t.Errorf("raft WAL syncs %v do not balance solo + group", got)
	}
	if got["raft_wal_records_covered"] < got["raft_wal_syncs"] || got["raft_wal_group_fanin"] < 1 {
		t.Errorf("raft WAL covered fewer records than syncs: %v", got)
	}
}

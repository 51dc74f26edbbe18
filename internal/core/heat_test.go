package core

import (
	"strings"
	"testing"

	"mantle/internal/types"
)

// The heat plane end to end: a skewed stat workload must surface the
// hot directory in the proxy sketch, nonzero per-shard loads, read-mix
// and rate accounting on the IndexNode group, and — with sampling and
// the observation floor forced down — at least one captured slow-op
// span tree.
func TestHeatPlaneEndToEnd(t *testing.T) {
	m := newTestMantle(t, func(c *Config) {
		c.Heat = HeatConfig{SampleEvery: 1, MinCount: 1}
	})
	if _, err := m.Mkdir(op(m), "/hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mkdir(op(m), "/cold"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(op(m), "/hot/obj", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(op(m), "/cold/obj", 1); err != nil {
		t.Fatal(err)
	}
	// Zipf-ish skew: the hot directory takes ~50x the cold one's stats.
	for i := 0; i < 200; i++ {
		if _, err := m.ObjStat(op(m), "/hot/obj"); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if _, err := m.ObjStat(op(m), "/cold/obj"); err != nil {
				t.Fatal(err)
			}
		}
	}

	s := m.Status()
	if len(s.Proxy.HotDirs) == 0 || s.Proxy.HotDirs[0].Key != "/hot" {
		t.Fatalf("proxy hot dirs = %+v, want /hot first", s.Proxy.HotDirs)
	}
	if s.Proxy.HotDirs[0].Count < 200 {
		t.Fatalf("hot dir count = %d, want >= 200", s.Proxy.HotDirs[0].Count)
	}

	if s.Index.LeaderReads+s.Index.FollowerReads+s.Index.LearnerReads == 0 {
		t.Fatal("no reads classified in the IndexNode read mix")
	}
	if len(s.Index.HotWriteDirs) == 0 {
		t.Fatalf("no hot write dirs (mkdirs went through propose): %+v", s.Index)
	}

	var reads, pieces int64
	for _, sl := range s.Shards {
		reads += sl.Reads
		pieces += sl.TxnPieces
	}
	if reads == 0 || pieces == 0 {
		t.Fatalf("shard loads flat: reads=%d pieces=%d", reads, pieces)
	}
	if len(s.DBDirs) == 0 {
		t.Fatal("DB-level hot-dir sketch empty")
	}

	// With SampleEvery=1 and MinCount=1 every op is sampled and the p99
	// threshold is live from the first observation, so the slowest op in
	// each distribution's tail must have been captured.
	if s.SlowOps.Sampled == 0 {
		t.Fatal("flight recorder saw no samples")
	}
	if s.SlowOps.Captured == 0 {
		t.Fatal("flight recorder captured no slow ops")
	}
	if len(s.SlowOps.Records) == 0 {
		t.Fatal("flight recorder retained no records")
	}
	rec := s.SlowOps.Records[0]
	if rec.Tree == "" || !strings.Contains(rec.Tree, rec.Op) {
		t.Fatalf("captured record has no span tree: %+v", rec)
	}

	// The text and metrics renderings carry the same signals.
	var b strings.Builder
	m.WriteStatus(&b)
	for _, want := range []string{"== proxy ==", "/hot", "== tafdb ==", "slow ops"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("WriteStatus missing %q:\n%s", want, b.String())
		}
	}
	b.Reset()
	if err := m.Metrics().Write(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`heat_proxy_dir{path="/hot"}`, `heat_shard_reads{shard="0"}`, "heat_slowop_captured"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b.String())
		}
	}
}

// The flight recorder keeps the tail of the sampled ops, not the sampled
// ops. A sampled op pays for its own spans; at the default SampleEvery
// = 64 the sampled ops are 1.6 % of all, so measured against the p99 of
// all ops a quarter of them or more would be captured. A warm loop
// captures at most 5 % of what it samples, record-breakers included.
func TestFlightRecorderCapturesTheTail(t *testing.T) {
	m := newTestMantle(t, nil)
	if _, err := m.Mkdir(op(m), "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(op(m), "/d/o", 1); err != nil {
		t.Fatal(err)
	}
	const stats = 64 * 1000
	for i := 0; i < stats; i++ {
		if _, err := m.ObjStat(op(m), "/d/o"); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Status().SlowOps
	if s.Sampled < 900 {
		t.Fatalf("sampled %d of %d stats at the default SampleEvery", s.Sampled, stats)
	}
	if share := float64(s.Captured) / float64(s.Sampled); share > 0.05 {
		t.Fatalf("captured %d of %d sampled ops (%.1f %%), want <= 5 %%", s.Captured, s.Sampled, 100*share)
	}
}

// Sampling disabled (SampleEvery < 0) must keep the recorder silent
// while the sketches still run.
func TestHeatSamplingDisabled(t *testing.T) {
	m := newTestMantle(t, func(c *Config) {
		c.Heat = HeatConfig{SampleEvery: -1}
	})
	if _, err := m.Mkdir(op(m), "/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := m.DirStat(op(m), "/d"); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Status()
	if s.SlowOps.Sampled != 0 || s.SlowOps.Captured != 0 {
		t.Fatalf("recorder active with sampling off: %+v", s.SlowOps)
	}
	if len(s.Proxy.HotDirs) == 0 {
		t.Fatal("sketches should run regardless of sampling")
	}
}

// The DB heat sketch keys on parent-directory IDs, so the hot pid must
// correspond to the directory stat'd most.
func TestHeatDBDirKeys(t *testing.T) {
	m := newTestMantle(t, nil)
	if _, err := m.Mkdir(op(m), "/d"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Lookup(op(m), "/d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := m.DirStat(op(m), "/d"); err != nil {
			t.Fatal(err)
		}
	}
	hot := m.DB().HotDirs()
	if len(hot) == 0 {
		t.Fatal("empty DB hot dirs")
	}
	if hot[0].Key != res.Entry.ID && hot[0].Key != types.RootID {
		t.Fatalf("hottest pid = %d, want %d (/d) or root", hot[0].Key, res.Entry.ID)
	}
}

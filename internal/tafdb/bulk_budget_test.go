package tafdb_test

import (
	"runtime"
	"testing"

	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/tafdb"
	"mantle/internal/workload"
)

// TestBulkInsertAllocBudget holds population's transient cost: building
// a 200K-entry namespace allocates at most 300 bytes per entry in all,
// generator and IndexNode included (~235 B: the Populate entries, the
// row references and the tree itself). Allocation sizes depend only on
// the input, so the figure is stable run to run.
func TestBulkInsertAllocBudget(t *testing.T) {
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{Shards: 8},
		Index: indexnode.Config{Voters: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	sn := workload.BuildScale(200_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := sn.Populate(m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(sn.Entries())
	t.Logf("populate allocated %.1f B/entry over %d entries", perEntry, sn.Entries())
	if perEntry > 300 {
		t.Fatalf("populate allocated %.1f B/entry, budget 300", perEntry)
	}
}

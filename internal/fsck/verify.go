package fsck

import (
	"fmt"

	"mantle/internal/core"
	"mantle/internal/storage"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// effRow is a site's logical row state: the entry with delta records
// folded into their primary attribute rows, so two sites compare equal
// regardless of how far each one's delta compactor has progressed
// (compaction is a local, unreplicated rewrite).
type effRow struct {
	ID        types.InodeID
	Kind      types.EntryKind
	Perm      types.Perm
	LinkCount int64
	Size      int64
}

// effectiveRows folds a site's rows into comparable logical state.
func effectiveRows(db *tafdb.DB) map[types.Key]effRow {
	out := make(map[types.Key]effRow)
	const attrPrimary = "\x00attr"
	db.ForEachRow(func(row storage.Row) {
		e := row.Entry
		if len(e.Name) > 0 && e.Name[0] == 0 && e.Name != attrPrimary {
			// Delta record: fold into the primary attribute row.
			k := types.Key{Pid: e.Pid, Name: attrPrimary}
			eff := out[k]
			eff.LinkCount += e.Attr.LinkCount
			eff.Size += e.Attr.Size
			out[k] = eff
			return
		}
		k := types.Key{Pid: e.Pid, Name: e.Name}
		eff := out[k] // may already hold folded deltas
		eff.ID, eff.Kind, eff.Perm = e.ID, e.Kind, e.Perm
		eff.LinkCount += e.Attr.LinkCount
		eff.Size += e.Attr.Size
		out[k] = eff
		return
	})
	return out
}

// CompareSites verifies that two sites hold the same logical namespace
// — zero lost, duplicated, or divergent rows — after replication has
// drained (lag zero, no pending transactions). Delta records are folded
// before comparing, since compaction progress is site-local. Returns
// the divergences found.
func CompareSites(primary, secondary *core.Mantle) []Issue {
	var issues []Issue
	a := effectiveRows(primary.DB())
	b := effectiveRows(secondary.DB())
	for k, ea := range a {
		eb, ok := b[k]
		if !ok {
			issues = append(issues, Issue{
				Check: "site-lost", Pid: k.Pid, Name: k.Name,
				Why: "row present on primary, missing on secondary",
			})
			continue
		}
		delete(b, k)
		if ea != eb {
			issues = append(issues, Issue{
				Check: "site-diverged", Pid: k.Pid, Name: k.Name,
				Why: fmt.Sprintf("primary %+v != secondary %+v", ea, eb),
			})
		}
	}
	for k := range b {
		issues = append(issues, Issue{
			Check: "site-extra", Pid: k.Pid, Name: k.Name,
			Why: "row present on secondary, absent on primary",
		})
	}
	return issues
}

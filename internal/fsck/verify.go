package fsck

import (
	"fmt"

	"mantle/internal/core"
	"mantle/internal/repl"
	"mantle/internal/storage"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// VerifyOplog cross-checks the replication oplog against the WAL, the
// durable commit record: every retained oplog record must match the WAL
// batch at the same sequence (count, kind, and key of every mutation),
// and every durable batch inside the retained window must appear in the
// oplog. A divergence here means the oplog would replay a different
// history than crash recovery — the bug class the commit-path hook
// ordering exists to prevent. Shards without a WAL are skipped.
func VerifyOplog(db *tafdb.DB, src *repl.Source) []Issue {
	var issues []Issue
	for si := 0; si < db.Shards() && si < src.Shards(); si++ {
		log := src.Log(si)
		base, tip := log.Base(), log.Tip()
		recs, ok := log.ReadFrom(base+1, 0)
		if !ok {
			continue
		}
		bySeq := make(map[uint64]repl.Record, len(recs))
		for _, r := range recs {
			bySeq[r.Seq] = r
		}
		walSeqs := 0
		db.Shard(si).ReplayBatches(func(seq uint64, muts []storage.Mutation) {
			walSeqs++
			if seq <= base {
				return // GC'd from the oplog; nothing to compare
			}
			r, ok := bySeq[seq]
			if !ok {
				issues = append(issues, Issue{
					Check: "oplog-missing", Pid: 0, Name: fmt.Sprintf("shard%d", si),
					Why: fmt.Sprintf("WAL batch seq=%d absent from the oplog", seq),
				})
				return
			}
			delete(bySeq, seq)
			if len(r.Muts) != len(muts) {
				issues = append(issues, Issue{
					Check: "oplog-diverged", Pid: 0, Name: fmt.Sprintf("shard%d", si),
					Why: fmt.Sprintf("seq=%d: oplog has %d mutations, WAL has %d",
						seq, len(r.Muts), len(muts)),
				})
				return
			}
			for i := range muts {
				if r.Muts[i].Kind != muts[i].Kind || r.Muts[i].Key != muts[i].Key {
					issues = append(issues, Issue{
						Check: "oplog-diverged", Pid: muts[i].Key.Pid, Name: muts[i].Key.Name,
						Why: fmt.Sprintf("seq=%d mutation %d: oplog %v/%v, WAL %v/%v",
							seq, i, r.Muts[i].Kind, r.Muts[i].Key, muts[i].Kind, muts[i].Key),
					})
				}
			}
		})
		if walSeqs == 0 {
			continue // no WAL attached: nothing to cross-check
		}
		// The WAL is gap-free from 1, so any unmatched retained record
		// claims a sequence the durable log never committed.
		for seq := range bySeq {
			issues = append(issues, Issue{
				Check: "oplog-extra", Pid: 0, Name: fmt.Sprintf("shard%d", si),
				Why: fmt.Sprintf("oplog record seq=%d (tip %d) has no durable WAL batch", seq, tip),
			})
		}
	}
	return issues
}

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

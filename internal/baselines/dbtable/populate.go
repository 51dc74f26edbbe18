package dbtable

import (
	"mantle/internal/api"
	"mantle/internal/pathutil"
	"mantle/internal/storage"
	"mantle/internal/types"
)

// Populate bulk-loads a namespace into the store and lands each link
// count on the directory's own row in its parent's shard, the root's on
// its synthetic row. A directory outside the batch is found with one pass
// over the store, run only when the batch counts one.
func Populate(s *Store, src api.PopSource) error {
	counts, err := s.BulkInsertFrom(src.Rows)
	if err != nil {
		return err
	}
	home := make(map[types.InodeID]types.Key, len(counts))
	if _, ok := counts[types.RootID]; ok {
		home[types.RootID] = rootKey
	}
	for _, d := range src.Dirs {
		if _, ok := counts[d.ID]; ok {
			home[d.ID] = types.Key{Pid: d.Pid, Name: pathutil.Base(d.Path)}
		}
	}
	for _, p := range s.parts {
		if len(home) == len(counts) {
			break
		}
		p.Shard.Scan(types.Key{}, types.Key{Pid: ^types.InodeID(0)}, func(r storage.Row) bool {
			if _, ok := counts[r.Entry.ID]; ok && r.Entry.IsDir() {
				home[r.Entry.ID] = types.Key{Pid: r.Entry.Pid, Name: r.Entry.Name}
			}
			return true
		})
	}
	for id, k := range home {
		if err := s.ShardFor(k.Pid).Shard.Apply([]storage.Mutation{{
			Kind: storage.MutDeltaAttr, Key: k, Delta: storage.AttrDelta{LinkCount: counts[id]},
		}}); err != nil {
			return err
		}
	}
	return nil
}

package dbtable

import (
	"time"

	"mantle/internal/api"
	"mantle/internal/pathutil"
	"mantle/internal/storage"
	"mantle/internal/types"
)

// Populate bulk-loads a namespace into the store: directory and object
// rows with attribute metadata inline, plus parent link counts. Parents
// must precede children in dirs.
func Populate(s *Store, dirs []api.PopDir, objects []api.PopObject) error {
	entries := make([]types.Entry, 0, len(dirs)+len(objects))
	links := make(map[types.InodeID]int64)
	maxID := uint64(types.RootID)
	for _, d := range dirs {
		a := d.Access()
		entries = append(entries, types.Entry{
			Pid: a.Pid, Name: a.Name, ID: a.ID,
			Kind: types.KindDir, Perm: a.Perm, Attr: types.Attr{MTime: time.Now()},
		})
		links[d.Pid]++
		if uint64(d.ID) > maxID {
			maxID = uint64(d.ID)
		}
	}
	s.ReserveIDs(types.InodeID(maxID))
	for _, o := range objects {
		entries = append(entries, types.Entry{
			Pid: o.Pid, Name: o.Name, ID: s.NewID(), Kind: types.KindObject,
			Perm: types.PermAll, Attr: types.Attr{Size: o.Size, MTime: time.Now()},
		})
		links[o.Pid]++
	}
	if err := s.BulkInsert(entries); err != nil {
		return err
	}
	// Fold link counts into the directories' rows (keyed by the parent's
	// (pid, name), which we recover from the reverse of the dirs list;
	// the root uses its synthetic row).
	rowOf := make(map[types.InodeID]types.Key, len(dirs)+1)
	rowOf[types.RootID] = rootKey
	for _, d := range dirs {
		rowOf[d.ID] = types.Key{Pid: d.Pid, Name: pathutil.Base(d.Path)}
	}
	for id, n := range links {
		k, ok := rowOf[id]
		if !ok {
			continue
		}
		_ = s.ShardFor(k.Pid).Shard.Apply([]storage.Mutation{{
			Kind: storage.MutDeltaAttr, Key: k,
			Delta: storage.AttrDelta{LinkCount: n}, MustExist: true,
		}})
	}
	return nil
}

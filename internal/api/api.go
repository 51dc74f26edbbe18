// Package api defines the metadata-service interface that Mantle and the
// three baseline systems (Tectonic, InfiniFS, LocoFS) implement. The
// benchmark harness drives every system through this interface, so the
// comparisons in the evaluation exercise identical op sequences.
//
// Operations use mdtest's names, as the paper does. Object operations
// take the object's full path; directory operations take the directory's
// full path. Every operation reports a types.Result with the per-phase
// latency split (lookup / loop detection / execute), the RPC round trips
// consumed, and the transaction retries incurred.
package api

import (
	"cmp"
	"time"

	"mantle/internal/clock"
	"mantle/internal/pathutil"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

// Service is a COSS metadata service under test.
type Service interface {
	// Name identifies the system ("mantle", "tectonic", "infinifs",
	// "locofs").
	Name() string
	// Caller returns the RPC caller proxies use (per-op tracking).
	Caller() *rpc.Caller

	// Lookup resolves a directory path to its metadata (first-class for
	// the depth experiments; also the first step of every other op).
	Lookup(op *rpc.Op, dirPath string) (types.Result, error)
	// Create inserts an object.
	Create(op *rpc.Op, objPath string, size int64) (types.Result, error)
	// Delete removes an object.
	Delete(op *rpc.Op, objPath string) (types.Result, error)
	// ObjStat stats an object.
	ObjStat(op *rpc.Op, objPath string) (types.Result, error)
	// DirStat stats a directory.
	DirStat(op *rpc.Op, dirPath string) (types.Result, error)
	// Mkdir creates a directory.
	Mkdir(op *rpc.Op, dirPath string) (types.Result, error)
	// Rmdir removes an empty directory.
	Rmdir(op *rpc.Op, dirPath string) (types.Result, error)
	// DirRename moves srcPath to dstPath (both full directory paths).
	DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error)
	// ReadDir lists a directory.
	ReadDir(op *rpc.Op, dirPath string) (types.Result, []types.Entry, error)

	// Populate bulk-loads a namespace before experiments, bypassing the
	// transactional path deterministically.
	Populate(dirs []PopDir, objects []PopObject) error

	// Stop shuts the system down.
	Stop()
}

// PopDir describes one directory for bulk population, in any order.
type PopDir struct {
	Path string
	ID   types.InodeID
	Pid  types.InodeID
	Perm types.Perm
}

// PopObject describes one object for bulk population.
type PopObject struct {
	Pid  types.InodeID
	Name string
	Size int64
}

// PopRows converts a population batch into the rows it writes,
// directories first, and the directories' access entries — the one
// conversion every system's Populate runs. Every directory ID is reserved
// in ids before the objects' IDs are allocated from it, so the two never
// collide. A directory is named by its path's last component and an unset
// permission means PermAll.
func PopRows(ids *types.IDAlloc, dirs []PopDir, objects []PopObject) ([]types.Entry, []types.AccessEntry) {
	rows := make([]types.Entry, 0, len(dirs)+len(objects))
	access := make([]types.AccessEntry, len(dirs))
	var maxID types.InodeID
	for i, d := range dirs {
		rows = append(rows, types.Entry{
			Pid: d.Pid, Name: pathutil.Base(d.Path), ID: d.ID, Kind: types.KindDir,
			Perm: cmp.Or(d.Perm, types.PermAll),
		})
		access[i] = rows[i].Access()
		maxID = max(maxID, d.ID)
	}
	ids.ReserveIDs(maxID)
	for _, o := range objects {
		rows = append(rows, types.Entry{
			Pid: o.Pid, Name: o.Name, ID: ids.NewID(), Kind: types.KindObject,
			Perm: types.PermAll, Attr: types.Attr{Size: o.Size},
		})
	}
	return rows, access
}

// Timer measures operation phases.
type Timer struct {
	last time.Duration // clock.Mono at the previous mark
	res  types.Result
}

// NewTimer starts a phase timer.
func NewTimer() *Timer { return &Timer{last: clock.Mono()} }

// Phase records the elapsed time since the previous mark under phase p
// and returns it.
func (t *Timer) Phase(p types.Phase) time.Duration {
	now := clock.Mono()
	d := now - t.last
	t.res.Phases = t.res.Phases.Add(p, d)
	t.last = now
	return d
}

// Done finalises the result with the op's RPC count and retries.
func (t *Timer) Done(op *rpc.Op, retries int, entry types.Entry) types.Result {
	t.res.RTTs = op.RTTs()
	t.res.Retries = retries
	t.res.Entry = entry
	return t.res
}

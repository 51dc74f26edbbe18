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

	// PopulateFrom bulk-loads a namespace before experiments, bypassing
	// the transactional path deterministically.
	PopulateFrom(src PopSource) error
	// Populate is PopulateFrom(SlicePop(dirs, objects)).
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

// PopSource is a population batch: its directories, in any order, and
// its objects as a stream. Objects yields the same objects in the same
// order on every call, since the bulk loader pulls it twice and never
// holds the batch whole; nil means none.
type PopSource struct {
	Dirs    []PopDir
	Objects func(yield func(PopObject) bool)
}

// SlicePop is the PopSource of two slices.
func SlicePop(dirs []PopDir, objects []PopObject) PopSource {
	return PopSource{Dirs: dirs, Objects: func(yield func(PopObject) bool) {
		for _, o := range objects {
			if !yield(o) {
				return
			}
		}
	}}
}

// Rows yields the rows the batch writes, directories first: the row
// source every system's Populate hands its bulk loader. A directory is
// named by its path's last component and an unset permission means
// PermAll; an object row leaves its ID zero, for the loader to allocate
// after it has reserved every directory's ID.
func (src PopSource) Rows(yield func(*types.Entry) bool) {
	var e types.Entry
	for _, d := range src.Dirs {
		e = types.Entry{
			Pid: d.Pid, Name: pathutil.Base(d.Path), ID: d.ID, Kind: types.KindDir,
			Perm: cmp.Or(d.Perm, types.PermAll),
		}
		if !yield(&e) {
			return
		}
	}
	src.ObjectRows(yield)
}

// ObjectRows yields the objects' rows alone, as Rows does.
func (src PopSource) ObjectRows(yield func(*types.Entry) bool) {
	if src.Objects == nil {
		return
	}
	e := &types.Entry{Kind: types.KindObject, Perm: types.PermAll}
	src.Objects(func(o PopObject) bool {
		e.Pid, e.Name, e.Attr.Size = o.Pid, o.Name, o.Size
		return yield(e)
	})
}

// Access returns the directories' access entries, the rows IndexNode
// keeps.
func (src PopSource) Access() []types.AccessEntry {
	access := make([]types.AccessEntry, len(src.Dirs))
	for i, d := range src.Dirs {
		access[i] = types.AccessEntry{
			Pid: d.Pid, Name: pathutil.Base(d.Path), ID: d.ID, Perm: cmp.Or(d.Perm, types.PermAll),
		}
	}
	return access
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

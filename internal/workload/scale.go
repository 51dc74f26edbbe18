package workload

import (
	"fmt"
	"slices"

	"mantle/internal/api"
	"mantle/internal/bench"
	"mantle/internal/types"
)

// ScaleNamespace is the lean namespace generator behind the 10M+-entry
// flatness sweep. Build keeps a pathID map and per-client path slices —
// fine at experiment scale, but at ten million entries the bookkeeping
// costs more memory than the namespace under test, which would drown the
// bytes/entry measurement. A ScaleNamespace stores only its shape
// (groups × dirs × objects) and a small shared name table; every path
// and inode ID is recomputed from indices on demand.
//
// Layout: /s/g<g>/d<d>/o<k> — G group directories under /s, D dirs per
// group, F objects per dir. Object paths have depth 4; directory IDs are
// assigned densely from BaseID so population needs no map.
type ScaleNamespace struct {
	Groups, DirsPerGroup, ObjectsPerDir int
	BaseID                              types.InodeID

	groupNames []string // "g0".."g<G-1>" in byte order (nameTable)
	dirNames   []string // "d0".."d<D-1>", likewise
	objNames   []string // "o0".."o<F-1>", likewise
}

// BuildScale shapes a namespace of at least n total entries (dirs +
// objects). Dirs per group and objects per dir are fixed at 64, so the
// group count grows linearly with n and every TafDB shard receives an
// even slice of the directories.
func BuildScale(n int) *ScaleNamespace {
	const perGroup = 64 * 64 // objects contributed by one group's dirs
	groups := (n + perGroup - 1) / perGroup
	if groups < 1 {
		groups = 1
	}
	sn := &ScaleNamespace{
		Groups: groups, DirsPerGroup: 64, ObjectsPerDir: 64,
		BaseID: 1 << 20,
	}
	sn.groupNames = nameTable("g", sn.Groups)
	sn.dirNames = nameTable("d", sn.DirsPerGroup)
	sn.objNames = nameTable("o", sn.ObjectsPerDir)
	return sn
}

// nameTable returns prefix+"0" … prefix+"<n-1>" in byte order (d0, d1,
// d10, …), so Populate emits each directory's children as one sorted
// run, which the bulk loader's name sort finishes in one linear walk.
func nameTable(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	slices.Sort(out)
	return out
}

// Entries returns the total entry count (directories + objects).
func (sn *ScaleNamespace) Entries() int {
	dirs := 1 + sn.Groups + sn.Groups*sn.DirsPerGroup
	return dirs + sn.Groups*sn.DirsPerGroup*sn.ObjectsPerDir
}

// Objects returns the object count.
func (sn *ScaleNamespace) Objects() int {
	return sn.Groups * sn.DirsPerGroup * sn.ObjectsPerDir
}

// rootID, groupID, and dirID compute the dense inode ID assignment.
func (sn *ScaleNamespace) rootID() types.InodeID { return sn.BaseID }
func (sn *ScaleNamespace) groupID(g int) types.InodeID {
	return sn.BaseID + 1 + types.InodeID(g)
}
func (sn *ScaleNamespace) dirID(g, d int) types.InodeID {
	return sn.BaseID + 1 + types.InodeID(sn.Groups) + types.InodeID(g*sn.DirsPerGroup+d)
}

// DirPath returns the path of dir (g, d).
func (sn *ScaleNamespace) DirPath(g, d int) string {
	return "/s/" + sn.groupNames[g] + "/" + sn.dirNames[d]
}

// ObjPath returns the path of the i-th object (objects are numbered
// dir-major: dir index i/F, object index i%F).
func (sn *ScaleNamespace) ObjPath(i int) string {
	f := sn.ObjectsPerDir
	di, k := i/f, i%f
	g, d := di/sn.DirsPerGroup, di%sn.DirsPerGroup
	return sn.DirPath(g, d) + "/" + sn.objNames[k]
}

// Populate bulk-loads the namespace in one PopulateFrom call, so the
// service's bulk-load fast path (per-shard sorted B-tree rebuild) sees
// the whole population at once. The directories are a slice; the objects
// are generated from the shape on each pull, with names from the shared
// name table — no per-object value is stored or string allocated here.
func (sn *ScaleNamespace) Populate(s api.Service) error {
	dirs := make([]api.PopDir, 0, 1+sn.Groups+sn.Groups*sn.DirsPerGroup)
	dirs = append(dirs, api.PopDir{
		Path: "/s", ID: sn.rootID(), Pid: types.RootID, Perm: types.PermAll,
	})
	for g := 0; g < sn.Groups; g++ {
		dirs = append(dirs, api.PopDir{
			Path: "/s/" + sn.groupNames[g],
			ID:   sn.groupID(g), Pid: sn.rootID(), Perm: types.PermAll,
		})
	}
	for g := 0; g < sn.Groups; g++ {
		for d := 0; d < sn.DirsPerGroup; d++ {
			dirs = append(dirs, api.PopDir{
				Path: sn.DirPath(g, d),
				ID:   sn.dirID(g, d), Pid: sn.groupID(g), Perm: types.PermAll,
			})
		}
	}
	return s.PopulateFrom(api.PopSource{Dirs: dirs, Objects: sn.objects})
}

// objects yields every object, dir-major, each directory's in name order.
func (sn *ScaleNamespace) objects(yield func(api.PopObject) bool) {
	for g := 0; g < sn.Groups; g++ {
		for d := 0; d < sn.DirsPerGroup; d++ {
			pid := sn.dirID(g, d)
			for _, name := range sn.objNames {
				if !yield(api.PopObject{Pid: pid, Name: name, Size: 64 << 10}) {
					return
				}
			}
		}
	}
}

// StatOp stats objects in a deterministic worker-striped order touching
// every directory, the flatness sweep's read workload.
func (sn *ScaleNamespace) StatOp(s api.Service) bench.OpFunc {
	n := sn.Objects()
	return func(w, seq int) (types.Result, error) {
		// A large co-prime stride scatters accesses across groups so no
		// shard or cache line is measured preferentially.
		i := (w*1000003 + seq*257) % n
		return s.ObjStat(s.Caller().Begin(), sn.ObjPath(i))
	}
}

// LookupOp resolves leaf directory paths with the same access pattern
// as StatOp.
func (sn *ScaleNamespace) LookupOp(s api.Service) bench.OpFunc {
	n := sn.Groups * sn.DirsPerGroup
	return func(w, seq int) (types.Result, error) {
		i := (w*1000003 + seq*257) % n
		return s.Lookup(s.Caller().Begin(), sn.DirPath(i/sn.DirsPerGroup, i%sn.DirsPerGroup))
	}
}

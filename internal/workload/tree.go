// Package workload generates the namespaces and operation streams the
// evaluation runs: an mdtest-style population tree (per-client private
// subtrees at a configurable depth plus a shared directory for the
// conflicting '-s' variants), deep path chains for the depth sweep, the
// mdtest operation drivers, and the two application workloads (Spark
// Analytics and AI audio pre-processing) of §6.2.
package workload

import (
	"fmt"
	"math/rand"

	"mantle/internal/api"
	"mantle/internal/pathutil"
	"mantle/internal/types"
)

// TreeSpec describes an mdtest-style namespace.
type TreeSpec struct {
	// Clients is the number of private client subtrees.
	Clients int
	// Depth is the directory depth of each client's working (leaf)
	// directory; pre-populated object paths then have depth Depth+1.
	// The evaluation uses 10, matching the paper's "average path depth
	// of 10". Must be >= 3.
	Depth int
	// ObjectsPerClient objects are pre-created in each working dir.
	ObjectsPerClient int
	// SmallRatio is the fraction of small objects; sizes alternate
	// between SmallSize and LargeSize accordingly.
	SmallRatio float64
	// SmallSize / LargeSize in bytes.
	SmallSize, LargeSize int64
	// BaseID is the first inode ID assigned to populated directories.
	BaseID types.InodeID
	// Seed drives size assignment.
	Seed int64
	// BranchLevels/BranchFactor optionally grow a bushy subtree under
	// each client's chain: the last BranchLevels levels branch
	// BranchFactor ways, producing BranchFactor^BranchLevels leaf
	// directories per client at depth Depth. Real namespaces branch near
	// the leaves; the Figure 18 k-sweep needs this shape because the
	// number of cacheable (k-truncated) prefixes — and so the cache's
	// memory — depends on it.
	BranchLevels int
	BranchFactor int
}

func (s TreeSpec) withDefaults() TreeSpec {
	if s.Clients <= 0 {
		s.Clients = 8
	}
	if s.Depth < 3 {
		s.Depth = 10
	}
	if s.SmallSize == 0 {
		s.SmallSize = 64 << 10
	}
	if s.LargeSize == 0 {
		s.LargeSize = 4 << 20
	}
	if s.SmallRatio == 0 {
		s.SmallRatio = 0.5
	}
	if s.BaseID == 0 {
		s.BaseID = 1 << 20
	}
	return s
}

// Namespace is a generated population plus the paths the drivers use.
type Namespace struct {
	Spec    TreeSpec
	Dirs    []api.PopDir
	Objects []api.PopObject

	// WorkDirs[c] is client c's private working directory (depth =
	// Spec.Depth).
	WorkDirs []string
	// SharedDir is the conflict target for the '-s' workloads, at the
	// same depth as the working dirs.
	SharedDir string
	// ObjectPaths[c] lists client c's pre-populated object paths.
	ObjectPaths [][]string
	// LeafDirs[c] lists client c's bushy leaf directories (only when
	// BranchLevels > 0); the working dir is always included.
	LeafDirs [][]string

	pathID map[string]types.InodeID
	nextID types.InodeID
}

// Build generates the namespace.
func Build(spec TreeSpec) *Namespace {
	spec = spec.withDefaults()
	ns := &Namespace{
		Spec:   spec,
		pathID: map[string]types.InodeID{"/": types.RootID},
		nextID: spec.BaseID,
	}
	rng := rand.New(rand.NewSource(spec.Seed + 1))

	// Shared subtree: /mdt/shared/s3/s4/.../work
	shared := "/mdt/shared"
	for l := 3; l < spec.Depth; l++ {
		shared += fmt.Sprintf("/s%d", l)
	}
	shared += "/work"
	ns.SharedDir = ns.addDirChain(shared)

	for c := 0; c < spec.Clients; c++ {
		p := fmt.Sprintf("/mdt/c%d", c)
		chainEnd := spec.Depth
		if spec.BranchLevels > 0 {
			// The chain reaches depth chainEnd-1; the bush adds
			// BranchLevels more, landing leaves at exactly spec.Depth.
			chainEnd = spec.Depth - spec.BranchLevels + 1
			if chainEnd < 3 {
				chainEnd = 3
			}
		}
		for l := 3; l < chainEnd; l++ {
			p += fmt.Sprintf("/d%d", l)
		}
		var leaves []string
		if spec.BranchLevels > 0 {
			ns.addDirChain(p)
			leaves = ns.addBush(p, spec.Depth-(chainEnd-1), spec.BranchFactor)
		}
		work := p
		if spec.BranchLevels > 0 && len(leaves) > 0 {
			work = leaves[0]
		} else {
			work = ns.addDirChain(p + "/work")
		}
		ns.WorkDirs = append(ns.WorkDirs, work)
		ns.LeafDirs = append(ns.LeafDirs, leaves)
		paths := make([]string, 0, spec.ObjectsPerClient)
		pid := ns.pathID[work]
		for i := 0; i < spec.ObjectsPerClient; i++ {
			name := fmt.Sprintf("f%06d", i)
			size := spec.LargeSize
			if rng.Float64() < spec.SmallRatio {
				size = spec.SmallSize
			}
			ns.Objects = append(ns.Objects, api.PopObject{Pid: pid, Name: name, Size: size})
			paths = append(paths, work+"/"+name)
		}
		ns.ObjectPaths = append(ns.ObjectPaths, paths)
	}
	return ns
}

// addDirChain ensures every ancestor of path exists in the population,
// returning the cleaned path.
func (ns *Namespace) addDirChain(path string) string {
	path = pathutil.Clean(path)
	comps := pathutil.Split(path)
	cur := "/"
	pid := types.RootID
	for _, c := range comps {
		next := cur
		if next == "/" {
			next = "/" + c
		} else {
			next = next + "/" + c
		}
		id, ok := ns.pathID[next]
		if !ok {
			id = ns.nextID
			ns.nextID++
			ns.pathID[next] = id
			ns.Dirs = append(ns.Dirs, api.PopDir{Path: next, ID: id, Pid: pid, Perm: types.PermAll})
		}
		cur, pid = next, id
	}
	return path
}

// addBush grows a balanced subtree of the given extra levels and fanout
// under root, returning the leaf directory paths.
func (ns *Namespace) addBush(root string, levels, fanout int) []string {
	if fanout < 2 {
		fanout = 2
	}
	frontier := []string{pathutil.Clean(root)}
	for l := 0; l < levels; l++ {
		next := make([]string, 0, len(frontier)*fanout)
		for _, base := range frontier {
			for b := 0; b < fanout; b++ {
				next = append(next, ns.addDirChain(fmt.Sprintf("%s/b%d", base, b)))
			}
		}
		frontier = next
	}
	return frontier
}

// AddChain adds a directory chain of exactly depth components rooted at
// /depth<d>/..., returning the leaf path — the Figure 17 namespaces.
func (ns *Namespace) AddChain(depth int) string {
	return ns.AddChainVariant(depth, 0)
}

// AddChainVariant adds the i-th independent chain of the given depth
// (distinct chains land on distinct shards, so depth sweeps measure path
// length rather than single-row hotspots).
func (ns *Namespace) AddChainVariant(depth, i int) string {
	p := fmt.Sprintf("/depth%d-%d", depth, i)
	for l := 2; l <= depth; l++ {
		p += fmt.Sprintf("/l%d", l)
	}
	return ns.addDirChain(p)
}

// AddObjects pre-creates n objects under dir (which must already exist),
// returning their paths.
func (ns *Namespace) AddObjects(dir string, n int, size int64) []string {
	dir = pathutil.Clean(dir)
	pid, ok := ns.pathID[dir]
	if !ok {
		panic("workload: AddObjects under unknown dir " + dir)
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%06d", i)
		ns.Objects = append(ns.Objects, api.PopObject{Pid: pid, Name: name, Size: size})
		out = append(out, dir+"/"+name)
	}
	return out
}

// Populate loads the namespace into a service.
func (ns *Namespace) Populate(s api.Service) error {
	return s.Populate(ns.Dirs, ns.Objects)
}

// Entries returns the total populated entry count (dirs + objects).
func (ns *Namespace) Entries() int { return len(ns.Dirs) + len(ns.Objects) }

package workload

import (
	"fmt"

	"mantle/internal/api"
	"mantle/internal/bench"
	"mantle/internal/types"
)

// The mdtest-style operation drivers. Each returns a bench.OpFunc bound
// to a service and namespace; workers map onto the namespace's client
// subtrees (worker w uses WorkDirs[w % Clients]). The '-e' (exclusive)
// variants keep every worker in its own directory; the '-s' (shared)
// variants aim all workers at one shared directory — the paper's
// conflict workloads (§6.3).

func (ns *Namespace) work(w int) string {
	return ns.WorkDirs[w%len(ns.WorkDirs)]
}

// LookupOp resolves the worker's working directory path (depth =
// Spec.Depth).
func LookupOp(s api.Service, ns *Namespace) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		return s.Lookup(s.Caller().Begin(), ns.work(w))
	}
}

// CreateOp creates distinct objects in the worker's working directory;
// round disambiguates repeated runs.
func CreateOp(s api.Service, ns *Namespace, round string) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		path := fmt.Sprintf("%s/new-%s-%d-%d", ns.work(w), round, w, seq)
		return s.Create(s.Caller().Begin(), path, ns.Spec.SmallSize)
	}
}

// DeleteOp deletes the objects a CreateOp run with the same round and
// shape created.
func DeleteOp(s api.Service, ns *Namespace, round string) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		path := fmt.Sprintf("%s/new-%s-%d-%d", ns.work(w), round, w, seq)
		return s.Delete(s.Caller().Begin(), path)
	}
}

// ObjStatOp stats pre-populated objects round-robin.
func ObjStatOp(s api.Service, ns *Namespace) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		paths := ns.ObjectPaths[w%len(ns.ObjectPaths)]
		return s.ObjStat(s.Caller().Begin(), paths[seq%len(paths)])
	}
}

// DirStatOp stats the worker's working directory.
func DirStatOp(s api.Service, ns *Namespace) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		return s.DirStat(s.Caller().Begin(), ns.work(w))
	}
}

// MkdirEOp creates directories in the worker's own directory (mkdir-e).
func MkdirEOp(s api.Service, ns *Namespace, round string) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		path := fmt.Sprintf("%s/dir-%s-%d-%d", ns.work(w), round, w, seq)
		return s.Mkdir(s.Caller().Begin(), path)
	}
}

// MkdirSOp creates directories in the shared directory (mkdir-s): every
// operation updates the same parent's attribute metadata.
func MkdirSOp(s api.Service, ns *Namespace, round string) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		path := fmt.Sprintf("%s/dir-%s-%d-%d", ns.SharedDir, round, w, seq)
		return s.Mkdir(s.Caller().Begin(), path)
	}
}

// RmdirEOp removes the directories a MkdirEOp run with the same round
// created.
func RmdirEOp(s api.Service, ns *Namespace, round string) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		path := fmt.Sprintf("%s/dir-%s-%d-%d", ns.work(w), round, w, seq)
		return s.Rmdir(s.Caller().Begin(), path)
	}
}

// PrepareRenamePingPong creates one source directory per worker for the
// rename drivers. Must run before RenameEOp/RenameSOp.
func PrepareRenamePingPong(s api.Service, ns *Namespace, workers int, round string) error {
	for w := 0; w < workers; w++ {
		path := fmt.Sprintf("%s/rn-%s-%d", ns.work(w), round, w)
		if _, err := s.Mkdir(s.Caller().Begin(), path); err != nil {
			return fmt.Errorf("prepare rename dirs: %w", err)
		}
	}
	return nil
}

// RenameEOp ping-pongs each worker's directory between two names inside
// its own working directory (dirrename-e: no cross-worker conflicts).
func RenameEOp(s api.Service, ns *Namespace, round string) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		a := fmt.Sprintf("%s/rn-%s-%d", ns.work(w), round, w)
		b := fmt.Sprintf("%s/rn2-%s-%d", ns.work(w), round, w)
		if seq%2 == 0 {
			return s.DirRename(s.Caller().Begin(), a, b)
		}
		return s.DirRename(s.Caller().Begin(), b, a)
	}
}

// RenameSOp ping-pongs each worker's directory between its own working
// directory and the shared directory (dirrename-s): every operation
// updates the shared directory's attribute metadata, emulating the
// Spark commit storm of §3.2.
func RenameSOp(s api.Service, ns *Namespace, round string) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		private := fmt.Sprintf("%s/rn-%s-%d", ns.work(w), round, w)
		shared := fmt.Sprintf("%s/rn-%s-%d", ns.SharedDir, round, w)
		if seq%2 == 0 {
			return s.DirRename(s.Caller().Begin(), private, shared)
		}
		return s.DirRename(s.Caller().Begin(), shared, private)
	}
}

// LookupLeafDirOp resolves pseudo-random bushy leaf directories (the
// Figure 18 k-sweep workload; requires TreeSpec.BranchLevels > 0).
func LookupLeafDirOp(s api.Service, ns *Namespace) bench.OpFunc {
	return func(w, seq int) (types.Result, error) {
		leaves := ns.LeafDirs[w%len(ns.LeafDirs)]
		if len(leaves) == 0 {
			return s.Lookup(s.Caller().Begin(), ns.work(w))
		}
		// Cheap deterministic mix of worker and sequence.
		i := (seq*2654435761 + w*40503) % len(leaves)
		if i < 0 {
			i = -i
		}
		return s.Lookup(s.Caller().Begin(), leaves[i])
	}
}

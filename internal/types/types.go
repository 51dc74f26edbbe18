// Package types defines the core metadata model shared by every component
// of the Mantle reproduction: inode identifiers, directory/object entries,
// attribute records, operation results with per-phase timings, and the
// error taxonomy used across TafDB, IndexNode, the proxies, and the
// baseline systems.
package types

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// InodeID uniquely identifies a directory or object within a namespace.
// ID 0 is reserved as "invalid"; RootID identifies the namespace root.
type InodeID uint64

// RootID is the inode ID of the root directory of every namespace.
const RootID InodeID = 1

// InvalidID is the zero InodeID, never assigned to an entry.
const InvalidID InodeID = 0

// IDAlloc allocates inode IDs above RootID; the zero value is ready.
type IDAlloc struct {
	n atomic.Uint64 // IDs issued or reserved past RootID
}

// NewID allocates a fresh inode ID.
func (a *IDAlloc) NewID() InodeID { return RootID + InodeID(a.n.Add(1)) }

// NewIDs allocates n consecutive fresh inode IDs and returns the first.
func (a *IDAlloc) NewIDs(n int) InodeID {
	return RootID + InodeID(a.n.Add(uint64(n))) - InodeID(n) + 1
}

// ReserveIDs advances the allocator past max, so IDs assigned elsewhere
// (bulk population, replication) never collide with allocated ones.
func (a *IDAlloc) ReserveIDs(max InodeID) {
	for {
		cur := a.n.Load()
		if max <= RootID+InodeID(cur) || a.n.CompareAndSwap(cur, uint64(max-RootID)) {
			return
		}
	}
}

// EntryKind discriminates directories from objects in the MetaTable.
type EntryKind uint8

const (
	// KindDir marks a directory entry.
	KindDir EntryKind = iota + 1
	// KindObject marks an object (file) entry.
	KindObject
)

// String returns "dir" or "object".
func (k EntryKind) String() string {
	switch k {
	case KindDir:
		return "dir"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Perm is a permission bitmask attached to every directory entry. Path
// permissions are the intersection (bitwise AND) of all ancestor
// permissions, following the Lazy-Hybrid approach cited by the paper.
type Perm uint16

// Permission bits. A caller needs PermLookup on every ancestor to resolve
// a path through it.
const (
	PermLookup Perm = 1 << iota
	PermRead
	PermWrite
	// PermAll grants everything.
	PermAll Perm = PermLookup | PermRead | PermWrite
)

// Intersect returns the aggregated permission of a path whose components
// carry p and q.
func (p Perm) Intersect(q Perm) Perm { return p & q }

// Allows reports whether all bits in need are present.
func (p Perm) Allows(need Perm) bool { return p&need == need }

// Attr is the attribute metadata of an entry (the "blue" metadata in the
// paper's Figure 5). It lives in TafDB only; IndexNode never stores it.
type Attr struct {
	Size      int64     // object size in bytes (0 for directories)
	LinkCount int64     // number of children for directories
	MTime     time.Time // last modification time
	Owner     uint32    // owning principal
}

// Entry is a full metadata row in TafDB's MetaTable, keyed by (Pid, Name).
type Entry struct {
	Pid  InodeID   // parent directory ID
	Name string    // component name within the parent
	ID   InodeID   // this entry's inode ID
	Kind EntryKind // directory or object
	Perm Perm      // access permission (directories)
	Attr Attr      // attribute metadata
}

// IsDir reports whether the entry is a directory.
func (e *Entry) IsDir() bool { return e.Kind == KindDir }

// Access is the entry's access entry, the row IndexNode keeps of a
// directory.
func (e *Entry) Access() AccessEntry {
	return AccessEntry{Pid: e.Pid, Name: e.Name, ID: e.ID, Perm: e.Perm}
}

// AccessEntry is the slice of directory metadata that IndexNode
// consolidates (the "red" metadata in Figure 5): roughly 80 bytes per
// directory — pid, name, id, permission, and a lock bit used by the
// cross-directory rename protocol.
type AccessEntry struct {
	Pid    InodeID
	Name   string
	ID     InodeID
	Perm   Perm
	Locked bool   // rename lock bit
	LockID string // UUID of the request holding the lock (idempotent retry)
}

// Phase labels one stage of a metadata operation, mirroring the paper's
// latency breakdown (§6.3): path resolution, rename loop detection, and
// execution against the metadata stores.
type Phase uint8

const (
	// PhaseLookup is path resolution.
	PhaseLookup Phase = iota
	// PhaseLoopDetect is rename loop detection (dirrename only).
	PhaseLoopDetect
	// PhaseExecute is the metadata read/update once the pid is known.
	PhaseExecute
	numPhases
)

// NumPhases is the number of distinct phases.
const NumPhases = int(numPhases)

// String names the phase as in the paper's figures.
func (p Phase) String() string {
	switch p {
	case PhaseLookup:
		return "lookup"
	case PhaseLoopDetect:
		return "loopdetect"
	case PhaseExecute:
		return "execute"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// PhaseTimings accumulates wall time per phase for one operation.
type PhaseTimings [NumPhases]time.Duration

// Add accumulates d into phase p and returns the updated timings.
func (t PhaseTimings) Add(p Phase, d time.Duration) PhaseTimings {
	t[p] += d
	return t
}

// Total returns the sum across phases.
func (t PhaseTimings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// Result carries the outcome of one metadata operation: the resolved
// entry (when applicable), the per-phase latency split, the number of RPC
// round trips consumed, and how many times the op was retried after a
// transaction abort or lock conflict.
type Result struct {
	Entry   Entry
	Phases  PhaseTimings
	RTTs    int
	Retries int
}

// Error taxonomy. Components wrap these with context; callers match with
// errors.Is.
var (
	// ErrNotFound: a path component or entry does not exist.
	ErrNotFound = errors.New("metadata: not found")
	// ErrExists: entry already exists on create/mkdir/rename destination.
	ErrExists = errors.New("metadata: already exists")
	// ErrNotDir: a path component is an object, not a directory.
	ErrNotDir = errors.New("metadata: not a directory")
	// ErrIsDir: object op applied to a directory.
	ErrIsDir = errors.New("metadata: is a directory")
	// ErrNotEmpty: rmdir on a non-empty directory.
	ErrNotEmpty = errors.New("metadata: directory not empty")
	// ErrPermission: permission check failed along the path.
	ErrPermission = errors.New("metadata: permission denied")
	// ErrConflict: transaction aborted due to a write-write conflict;
	// the caller should retry.
	ErrConflict = errors.New("metadata: transaction conflict")
	// ErrLocked: a rename lock is held by a concurrent operation.
	ErrLocked = errors.New("metadata: directory locked by concurrent rename")
	// ErrLoop: the rename would move a directory under its own subtree.
	ErrLoop = errors.New("metadata: rename would create a loop")
	// ErrRetryExhausted: op gave up after the configured retry budget.
	ErrRetryExhausted = errors.New("metadata: retries exhausted")
	// ErrNotLeader: a Raft write or linearisable read reached a
	// non-leader replica.
	ErrNotLeader = errors.New("raft: not leader")
	// ErrStopped: component has been shut down.
	ErrStopped = errors.New("metadata: service stopped")
	// ErrUnreachable: a simulated message was lost in the fabric (dropped,
	// partitioned, or the peer blackholed). Fabric-level and therefore
	// retryable, unlike application errors.
	ErrUnreachable = errors.New("netsim: peer unreachable")
	// ErrTimeout: an RPC exceeded its per-call deadline (including
	// retries).
	ErrTimeout = errors.New("rpc: deadline exceeded")
	// ErrUnavailable: the service cannot currently make progress (no
	// reachable quorum leader); the operation failed fast rather than
	// hanging. Surfaced by writes during partitions.
	ErrUnavailable = errors.New("metadata: service unavailable")
	// ErrOverloaded: every eligible replica is saturated and the request
	// was shed instead of queued (load-aware routing backpressure).
	// Usually wrapped in an OverloadError carrying a retry-after hint;
	// match with errors.Is(err, ErrOverloaded).
	ErrOverloaded = errors.New("metadata: replica overloaded, request shed")
)

// OverloadError is the typed backpressure error returned when the
// load-aware router sheds a request: RetryAfter is the server's estimate
// of when capacity frees up (derived from the saturated replicas' queue
// depth), which clients should treat as a minimum backoff.
type OverloadError struct {
	RetryAfter time.Duration
}

// Error renders the shed notice with its retry-after hint.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", ErrOverloaded, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Overloaded wraps a retry-after hint in an OverloadError.
func Overloaded(retryAfter time.Duration) error {
	return &OverloadError{RetryAfter: retryAfter}
}

// RetryAfter extracts the retry-after hint from an overload error chain
// (0 when err is not an overload shed).
func RetryAfter(err error) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// Key identifies a MetaTable row: the parent directory ID plus the
// component name. TafDB shards rows by Pid so that a directory's children
// colocate on one shard.
type Key struct {
	Pid  InodeID
	Name string
}

// Less orders keys by (Pid, Name) — the MetaTable's primary-key order.
func (k Key) Less(o Key) bool {
	if k.Pid != o.Pid {
		return k.Pid < o.Pid
	}
	return k.Name < o.Name
}

// String renders the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("%d/%s", uint64(k.Pid), k.Name) }

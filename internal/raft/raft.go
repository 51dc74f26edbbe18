// Package raft implements the Raft consensus protocol used to replicate
// Mantle's IndexNode (§4, §5.1.3, §5.2.3 of the paper) and LocoFS's
// directory server. It provides:
//
//   - leader election with randomised timeouts and term-based safety,
//   - log replication to voting followers and non-voting learners
//     (read replicas, as added in §5.1.3 to scale lookups),
//   - a state machine apply loop on every replica,
//   - consistent reads on every replica (read.go): inside a lease with
//     no leader trip — the leader's own lease, or a read grant it gives a
//     follower or learner that is serving reads — and otherwise by a
//     ReadIndex round, in which the reader queries the leader for its
//     commitIndex on its own goroutine (readers that arrive meanwhile are
//     batched into one later RPC, as the paper describes), the reply
//     advances the replica's own commit index over the log prefix that
//     leader has verified, and the reader waits until the local
//     applyIndex catches up,
//   - proposal batching: the leader groups queued proposals into one log
//     append and one log record per batch ("+raftlogbatch" in Figure 16),
//     bounded by a count/byte window (MaxBatch, maxBatchBytes),
//   - in-line proposals (apply.go): where no step of a round can park —
//     no log to sync, no fabric round trip, no fault hook — and nothing
//     is queued ahead, the proposer appends its entry, sends each
//     caught-up peer one AppendEntries, advances commit and applies on
//     its own goroutine, with none of batching's hand-offs; a peer that
//     lags is left to its replicator, and an entry the round did not
//     commit waits like a queued one,
//   - pipelined replication (Config.Pipeline): the leader streams
//     AppendEntries as soon as entries are appended in memory and
//     waits for their record to be durable in a background sync stage;
//     the commit rule counts the leader's durable index, so quorum
//     durability is preserved, and
//   - a durable log (persist.go): with FsyncCost > 0 each replica writes
//     its entries, term and vote, and snapshots as records to its own
//     storage.WAL, whose group commit is the one sync model of the tree
//     and the disk bottleneck that batching amortises (§5.2.3). A
//     replica acknowledges only what that log holds, and can Crash and
//     Restart from it. FsyncCost == 0 means no log and no restart.
//
// Networking runs over internal/netsim: every inter-replica RPC charges
// one fabric round trip and consults the fabric's fault hook (see
// internal/faults), so messages between replicas can be dropped,
// delayed, or partitioned. Crash-stop failures (Crash, and Restart from
// the log), leader changes, and network partitions are all supported
// and tested:
//
//   - every inter-replica send first delivers on the peer's fabric link,
//     which fails with types.ErrUnreachable when the edge is cut; the
//     sender treats the peer like an unresponsive node and retries on the
//     next kick,
//   - a leader that cannot contact a quorum of voters within the
//     check-quorum window (2× its election timeout) steps down, so an
//     isolated leader stops accepting writes instead of serving a
//     minority indefinitely, and
//   - ProposeTimeout bounds how long a proposal may wait for commit, so
//     writes into a quorum-less group fail fast instead of hanging.
package raft

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/clock"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/storage"
)

// Role is a replica's current role.
type Role uint8

const (
	// Follower replicates the leader's log.
	Follower Role = iota
	// Candidate is running an election.
	Candidate
	// Leader owns the log.
	Leader
	// LearnerRole replicates but does not vote or campaign.
	LearnerRole
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	case LearnerRole:
		return "learner"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Entry is one log entry.
type Entry struct {
	Term  uint64
	Index uint64
	Cmd   []byte
}

// StateMachine receives committed entries in log order, exactly once per
// replica.
type StateMachine interface {
	Apply(index uint64, cmd []byte)
}

// Snapshotter is the optional state-machine extension enabling log
// compaction: when the applied log exceeds Config.SnapshotThreshold, the
// replica captures a snapshot and truncates its log prefix; followers
// that fall behind the truncation point receive the snapshot instead of
// the missing entries (InstallSnapshot).
type Snapshotter interface {
	StateMachine
	// Snapshot serialises the full state-machine state. It is invoked
	// from the apply goroutine, so it never races Apply.
	Snapshot() []byte
	// Restore replaces the state-machine state from a snapshot; nil
	// data is the empty initial state (a Restart with no snapshot).
	Restore(data []byte)
}

// Config parameterises one replica.
type Config struct {
	// ID is the replica's unique name within the group.
	ID string
	// Learner marks the replica as a non-voting read replica.
	Learner bool
	// Fabric provides inter-replica network latency.
	Fabric *netsim.Fabric
	// Node models this replica's CPU; may be nil for an uncapped node.
	Node *netsim.Node
	// ElectionTimeout is the base election timeout; the actual timeout
	// is randomised in [ElectionTimeout, 2×ElectionTimeout).
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's idle heartbeat period.
	HeartbeatInterval time.Duration
	// FsyncCost is the simulated disk-sync latency of the replica's log
	// (a storage.WAL), charged once per group-committed sync. Zero
	// disables the disk model: no log is kept and the replica cannot
	// Restart.
	FsyncCost time.Duration
	// BatchEnabled turns on proposal batching. When off, the leader
	// replicates (and fsyncs) one proposal at a time — the Mantle-base
	// configuration of the Figure 16 ablation.
	BatchEnabled bool
	// Pipeline lets the leader stream AppendEntries to followers while
	// its own log sync is still in flight. A background sync stage waits
	// for each appended batch's record to be durable (the WAL's group
	// commit folds appends staged during one sync into the next), and
	// the commit rule counts the leader's durable index (not its last
	// appended index), so an entry still commits only once a quorum has
	// it on disk.
	Pipeline bool
	// SnapshotThreshold triggers log compaction once this many applied
	// entries accumulate past the previous snapshot. Zero disables
	// compaction. Requires SM to implement Snapshotter.
	SnapshotThreshold int
	// SM is the replica's state machine.
	SM StateMachine
	// ProposeLatency, when non-nil, observes end-to-end proposal
	// latency (enqueue → applied) on the replica completing each
	// proposal. Share one histogram across a group's replicas to get a
	// group-wide raft-propose distribution.
	ProposeLatency *metrics.Latency
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ElectionTimeout <= 0 {
		out.ElectionTimeout = 150 * time.Millisecond
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = out.ElectionTimeout / 5
	}
	if out.Fabric == nil {
		out.Fabric = netsim.NewLocalFabric()
	}
	if out.Node == nil {
		out.Node = netsim.NewNode(out.ID, 0)
	}
	if out.SnapshotThreshold > 0 {
		if _, ok := out.SM.(Snapshotter); !ok {
			// Without a Snapshotter the group could never install
			// snapshots on lagging followers; compaction would strand
			// them. Disable it.
			out.SnapshotThreshold = 0
		}
	}
	return out
}

type proposal struct {
	cmd  []byte
	term uint64 // the leader term whose log took the proposal
	done chan proposalResult
	// When the proposal was queued and appended (clock.Mono readings).
	enqueued, appended time.Duration
}

type proposalResult struct {
	index uint64
	err   error
}

// Raft is one replica. Create replicas with NewGroup.
type Raft struct {
	cfg Config
	id  string

	// applyMu serialises every state-machine access (Apply, Snapshot,
	// Restore) together with the lastApplied move that goes with it, so
	// a snapshot install cannot land between the applier reading an
	// entry and recording it applied. Taken before mu, never under it.
	applyMu sync.Mutex

	mu          sync.Mutex
	peers       map[string]*peer // all other replicas (voters and learners)
	voters      int              // number of voting members incl. self if voter
	role        Role             // written only by setRoleLocked
	term        uint64
	votedFor    string
	leaderID    string
	log         []Entry // log[0] is a sentinel at index 0, term 0
	commitIndex uint64
	lastApplied uint64
	// durableIndex is the highest log index covered by a completed
	// sync of this replica's WAL. Followers advance it before acking
	// AppendEntries; a pipelined leader advances it from syncStage, and
	// maybeAdvanceCommit uses it as the leader's own acknowledgement so
	// an entry commits only once a quorum has it durable.
	durableIndex uint64
	// wal is the replica's log on disk (nil when FsyncCost is 0), and
	// lastStaged the sequence number of the last record staged to it.
	// epoch moves whenever the log a staged record extended goes away —
	// a crash, a truncation, a snapshot install — so a sync that
	// completes afterwards advances nothing (persist).
	wal        *storage.WAL
	lastStaged uint64
	epoch      uint64
	// Leader volatile state.
	nextIndex  map[string]uint64
	matchIndex map[string]uint64
	pending    map[uint64]*proposal // index -> waiting proposal
	// inlining is set, under mu, while a proposal's round runs on its
	// proposer's goroutine (proposeInline), its apply included.
	inlining atomic.Bool
	// electionReset is when the election timer last restarted (a
	// clock.Mono reading).
	electionReset time.Duration

	applyCh   chan struct{} // kicks the applier
	proposeCh chan *proposal
	// life is the current incarnation; Restart installs a fresh one.
	life atomic.Pointer[life]

	// applyCond broadcasts when lastApplied advances (waitApplied).
	applyCond *sync.Cond

	// roleMirror publishes role for lock-free readers (Role).
	roleMirror atomic.Uint32

	// reads batches follower-read commitIndex queries to the leader.
	reads readState

	// view is what the current term's leader has verified of this
	// replica's log and reported committed (follower side; see read.go).
	view leaderView

	// Leases (read.go), as clock.Mono readings. Before stickyUntil the
	// replica neither grants a vote in a higher term nor campaigns.
	// contactAt is when the current term's leader was last heard from,
	// readAt the last read that wanted a lease here. leaseEnd is the
	// leader lease, kept past a step-down so the ex-leader still stays
	// out of elections; grant is the read grant this replica holds.
	stickyUntil time.Duration
	contactAt   time.Duration
	readAt      time.Duration
	leaseEnd    time.Duration
	grant       readGrant
	// kicks wakes the current term's replicators (leaderLoop), and
	// leaseCond waits for leaseEnd to move (confirmLocked).
	kicks     []chan struct{}
	leaseCond *sync.Cond

	// snapData is the latest snapshot (log prefix up to log[0].Index).
	snapData []byte

	metrics Metrics
}

// firstIndexLocked returns the index of the log's sentinel entry (the
// snapshot boundary). Caller holds r.mu.
func (r *Raft) firstIndexLocked() uint64 { return r.log[0].Index }

// entryAtLocked returns the log entry with absolute index idx. Caller
// holds r.mu and guarantees firstIndex <= idx <= lastIndex.
func (r *Raft) entryAtLocked(idx uint64) Entry {
	return r.log[idx-r.log[0].Index]
}

// SnapshotIndex returns the index covered by the latest snapshot.
func (r *Raft) SnapshotIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstIndexLocked()
}

// LogLen returns the number of live (non-compacted) log entries.
func (r *Raft) LogLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log) - 1
}

// Metrics counts internals for the ablation analysis and tests. Syncs
// are the replica's WAL syncs (zero without a log).
type Metrics struct {
	mu        sync.Mutex
	wal       *storage.WAL
	Appends   int64 // log append batches
	Proposals int64 // proposals accepted
	Elections int64 // elections started

	// Batching accounting: cumulative command bytes appended, and why
	// each leader batch was closed (batch occupancy = Proposals /
	// Appends; flush counters sum to the leader's Appends minus no-op
	// barriers).
	BatchBytes  int64
	FlushIdle   int64 // ingest queue drained
	FlushCount  int64 // MaxBatch proposals reached
	FlushBytes  int64 // maxBatchBytes reached
	FlushInline int64 // one proposal, on its proposer's goroutine

	// Cumulative proposal-stage wall time (observability): queue wait
	// until log append, and append-to-apply completion.
	IngestWait time.Duration
	CommitWait time.Duration

	// Reads served inside a lease with no leader trip, and ReadIndex
	// rounds: a follower's or learner's query to the leader, or a
	// leader's confirming heartbeat round.
	leaseReads, readRounds atomic.Int64
}

// Reads returns the lease-served read and ReadIndex round counts.
func (m *Metrics) Reads() (lease, rounds int64) {
	return m.leaseReads.Load(), m.readRounds.Load()
}

// flushReason classifies why the leader closed a proposal batch.
type flushReason uint8

const (
	flushIdle flushReason = iota
	flushCount
	flushBytes
	flushInline
)

// noteAppend records one leader batch append: its proposal count, its
// command bytes, and the reason the batch was closed.
func (m *Metrics) noteAppend(proposals, bytes int64, reason flushReason) {
	m.mu.Lock()
	m.Appends++
	m.Proposals += proposals
	m.BatchBytes += bytes
	switch reason {
	case flushCount:
		m.FlushCount++
	case flushBytes:
		m.FlushBytes++
	case flushInline:
		m.FlushInline++
	default:
		m.FlushIdle++
	}
	m.mu.Unlock()
}

// BatchStats is a snapshot of the write-batching counters.
type BatchStats struct {
	Syncs       int64
	Appends     int64
	Proposals   int64
	BatchBytes  int64
	FlushIdle   int64
	FlushCount  int64
	FlushBytes  int64
	FlushInline int64
}

// Batch snapshots the batching counters.
func (m *Metrics) Batch() BatchStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return BatchStats{
		Syncs:       m.syncs(),
		Appends:     m.Appends,
		Proposals:   m.Proposals,
		BatchBytes:  m.BatchBytes,
		FlushIdle:   m.FlushIdle,
		FlushCount:  m.FlushCount,
		FlushBytes:  m.FlushBytes,
		FlushInline: m.FlushInline,
	}
}

// StageWaits returns the mean per-proposal ingest and commit waits.
func (m *Metrics) StageWaits() (ingest, commit time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Proposals == 0 {
		return 0, 0
	}
	return m.IngestWait / time.Duration(m.Proposals), m.CommitWait / time.Duration(m.Proposals)
}

func (m *Metrics) add(appends, proposals, elections int64) {
	m.mu.Lock()
	m.Appends += appends
	m.Proposals += proposals
	m.Elections += elections
	m.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() (syncs, appends, proposals, elections int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs(), m.Appends, m.Proposals, m.Elections
}

func (m *Metrics) syncs() int64 {
	if m.wal == nil {
		return 0
	}
	return m.wal.Syncs()
}

// NewGroup constructs and starts a Raft group from the given configs.
// Exactly the non-learner members form the voting set. All replicas share
// the configs' Fabric (the first config's fabric is used if they differ).
func NewGroup(cfgs []Config) []*Raft {
	replicas := make([]*Raft, len(cfgs))
	voters := 0
	for _, c := range cfgs {
		if !c.Learner {
			voters++
		}
	}
	for i, c := range cfgs {
		cc := c.withDefaults()
		r := &Raft{
			cfg:        cc,
			id:         cc.ID,
			peers:      make(map[string]*peer),
			voters:     voters,
			log:        []Entry{{}},
			nextIndex:  make(map[string]uint64),
			matchIndex: make(map[string]uint64),
			applyCh:    make(chan struct{}, 1),
			proposeCh:  make(chan *proposal, 4096),
		}
		if cc.FsyncCost > 0 {
			r.wal = storage.NewWAL(cc.FsyncCost)
			r.metrics.wal = r.wal
		}
		r.life.Store(&life{stop: make(chan struct{})})
		if cc.Learner {
			r.setRoleLocked(LearnerRole) // r is not shared yet
		}
		r.applyCond = sync.NewCond(&r.mu)
		r.leaseCond = sync.NewCond(&r.mu)
		replicas[i] = r
	}
	for _, r := range replicas {
		for _, o := range replicas {
			if o.id != r.id {
				r.peers[o.id] = &peer{Raft: o, link: r.cfg.Fabric.Link(r.id, o.id)}
			}
		}
	}
	for _, r := range replicas {
		r.start(r.life.Load())
	}
	// Bootstrap kickstart: a fresh group has no leader, so waiting out a
	// full randomised election timeout (which deployments set generously
	// to tolerate scheduler stalls) only delays startup. The first voter
	// campaigns immediately; if it races another campaign, normal
	// election safety resolves the term.
	for _, r := range replicas {
		if !r.cfg.Learner {
			r.mu.Lock()
			r.startElectionLocked()
			r.mu.Unlock()
			break
		}
	}
	return replicas
}

// life is one incarnation of a replica, from NewGroup or Restart to
// Crash: the stop signal its goroutines and waiters select on, and the
// goroutines Crash waits for. Restart installs a fresh one rather than
// reopening this one, so a lock-free reader never sees it reassigned.
type life struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func (r *Raft) start(l *life) {
	r.mu.Lock()
	r.electionReset = clock.Mono()
	r.mu.Unlock()
	l.wg.Add(2)
	go r.electionLoop(l)
	go r.applier(l)
}

// Stop shuts the replica down: a Crash, under its shutdown name.
func (r *Raft) Stop() { r.Crash() }

func (r *Raft) stopped() bool {
	select {
	case <-r.life.Load().stop:
		return true
	default:
		return false
	}
}

// Stopped reports whether the replica has been shut down (crash-stopped).
func (r *Raft) Stopped() bool { return r.stopped() }

// ID returns the replica's name.
func (r *Raft) ID() string { return r.id }

// IsLearner reports whether the replica is a learner.
func (r *Raft) IsLearner() bool { return r.cfg.Learner }

// MetricsRef returns the replica's metrics counters.
func (r *Raft) MetricsRef() *Metrics { return &r.metrics }

// Status returns the replica's current role, term and known leader ID.
func (r *Raft) Status() (Role, uint64, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role, r.term, r.leaderID
}

// Role returns the replica's current role without taking the replica's
// lock: a per-request routing or accounting decision needs only the
// role, not Status's consistent (role, term, leader) triple.
func (r *Raft) Role() Role { return Role(r.roleMirror.Load()) }

// setRoleLocked changes the role and publishes it to Role. Caller holds
// r.mu.
func (r *Raft) setRoleLocked(role Role) {
	r.role = role
	r.roleMirror.Store(uint32(role))
}

// kickApplier wakes the applier after commitIndex moved.
func (r *Raft) kickApplier() {
	select {
	case r.applyCh <- struct{}{}:
	default:
	}
}

// CommitIndex returns the replica's commit index.
func (r *Raft) CommitIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commitIndex
}

// AppliedIndex returns the replica's apply index.
func (r *Raft) AppliedIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// electionLoop ticks the randomised election timer on voters.
func (r *Raft) electionLoop(l *life) {
	defer l.wg.Done()
	if r.cfg.Learner {
		return // learners never campaign
	}
	for {
		timeout := r.cfg.ElectionTimeout +
			time.Duration(rand.Int64N(int64(r.cfg.ElectionTimeout)))
		select {
		case <-l.stop:
			return
		case <-time.After(timeout / 4):
		}
		r.mu.Lock()
		if !r.stopped() && r.role != Leader && clock.Mono()-r.electionReset >= timeout {
			r.startElectionLocked()
		}
		r.mu.Unlock()
	}
}

// startElectionLocked transitions to candidate and solicits votes once
// the new term and the self-vote are durable. A replica inside a lease
// does not campaign: its own vote counts like any other. Caller holds
// r.mu.
func (r *Raft) startElectionLocked() {
	if r.stickyLocked() {
		return
	}
	r.setRoleLocked(Candidate)
	r.term++
	r.votedFor = r.id
	r.saveStateLocked()
	r.leaderID = ""
	r.electionReset = clock.Mono()
	term, epoch, seq := r.term, r.epoch, r.lastStaged
	lastIdx, lastTerm := r.lastLogLocked()
	r.metrics.add(0, 0, 1)

	votes := 1 // self
	var voteMu sync.Mutex
	for _, p := range r.peers {
		if p.IsLearner() {
			continue
		}
		go func(p *peer) {
			if !r.persist(epoch, seq, 0) {
				return // crashed before the vote reached the disk
			}
			if p.link.Deliver() != nil {
				return // vote request lost in the fabric
			}
			granted, replyTerm := p.handleRequestVote(term, r.id, lastIdx, lastTerm)
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.epoch != epoch {
				return
			}
			if replyTerm > r.term {
				r.becomeFollowerLocked(replyTerm, "")
				return
			}
			if r.role != Candidate || r.term != term || !granted {
				return
			}
			voteMu.Lock()
			votes++
			won := votes > r.voters/2
			voteMu.Unlock()
			if won {
				r.becomeLeaderLocked()
			}
		}(p)
	}
	// Single-voter group elects itself immediately.
	if r.voters == 1 {
		r.becomeLeaderLocked()
	}
}

// becomeFollowerLocked steps down into term with the given leader. Only
// a deposed leader restarts its election timer here: a refused vote
// request must not (Raft §5.2; leader contact and a granted vote do).
func (r *Raft) becomeFollowerLocked(term uint64, leader string) {
	wasLeader := r.role == Leader
	if r.cfg.Learner {
		r.setRoleLocked(LearnerRole)
	} else {
		r.setRoleLocked(Follower)
	}
	if term > r.term {
		r.term = term
		r.votedFor = "" // a vote binds only its own term
		r.saveStateLocked()
	}
	r.leaderID = leader
	if wasLeader {
		r.electionReset = clock.Mono()
		r.leaseCond.Broadcast() // a read confirming leadership gives up
		// A deposed leader's unapplied entries may be overwritten by the
		// next leader's: none of its proposals may be acknowledged as
		// committed from here on. The replication loop exits on the role
		// change.
		r.failPendingLocked()
	}
}

// becomeLeaderLocked initialises leader state and starts the replication
// loop. Caller holds r.mu.
func (r *Raft) becomeLeaderLocked() {
	if r.role == Leader {
		return
	}
	r.setRoleLocked(Leader)
	r.leaderID = r.id
	lastIdx, _ := r.lastLogLocked()
	now := clock.Mono()
	for id, p := range r.peers {
		r.nextIndex[id] = lastIdx + 1
		r.matchIndex[id] = 0
		// Acks of an earlier term renew nothing; grants it gave stay in
		// the commit rule until they expire.
		p.heard, p.acked, p.wantsGrant = now, 0, false
	}
	r.leaseEnd = 0
	if r.voters == 1 {
		r.leaseEnd = math.MaxInt64 // no other voter can elect anyone
	}
	term, l := r.term, r.life.Load()
	l.wg.Add(1)
	go r.leaderLoop(l, term)
}

// peer is another replica of the group as this one reaches it: the replica
// and the fabric link to it, resolved once in NewGroup. Every message to
// the peer first charges one round trip with link.Deliver, which consults
// the fabric's fault hook; a non-nil error means the message (or its
// reply) was lost, and the sender treats the peer as unresponsive.
type peer struct {
	*Raft
	link *netsim.Link
	// The leader's state for the peer, under the leader's mu, as
	// clock.Mono readings: the send time of the latest message the peer
	// answered (the check-quorum rule reads it to detect isolation) and
	// of the latest lease-renewing one it acked, the expiry of the last
	// read grant offered it, and whether its last reply asked for one;
	// and kick, which wakes the peer's replicator (leaderLoop).
	heard, acked, granted time.Duration
	wantsGrant            bool
	kick                  chan struct{}
}

// quorumReachable reports whether the leader has heard from a quorum of
// voters (itself included) within the check-quorum window. A leader cut
// off from the majority steps down so it cannot keep serving
// linearisable reads — or accepting writes that can never commit — from
// the minority side of a partition.
func (r *Raft) quorumReachable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != Leader {
		return true
	}
	window := 2 * r.cfg.ElectionTimeout
	now := clock.Mono()
	reachable := 1 // self
	for _, p := range r.peers {
		if !p.IsLearner() && now-p.heard <= window {
			reachable++
		}
	}
	return reachable >= r.voters/2+1
}

// handleRequestVote is the RequestVote RPC handler. A term it adopts
// and a vote it grants are durable before it replies; replyTerm 0
// signals a stopped replica.
func (r *Raft) handleRequestVote(term uint64, candidate string, lastIdx, lastTerm uint64) (granted bool, replyTerm uint64) {
	r.mu.Lock()
	if r.stopped() {
		r.mu.Unlock()
		return false, 0
	}
	if term > r.term && r.stickyLocked() {
		// Inside a lease: no vote in a higher term while a lease of this
		// one may be live, so the request is ignored, term and all.
		replyTerm = r.term
		r.mu.Unlock()
		return false, replyTerm
	}
	if term > r.term {
		r.becomeFollowerLocked(term, "")
	}
	myLastIdx, myLastTerm := r.lastLogLocked()
	upToDate := lastTerm > myLastTerm || (lastTerm == myLastTerm && lastIdx >= myLastIdx)
	if term == r.term && (r.votedFor == "" || r.votedFor == candidate) && upToDate && !r.cfg.Learner {
		if r.votedFor == "" {
			r.votedFor = candidate
			r.saveStateLocked()
		}
		r.electionReset = clock.Mono()
		granted = true
	}
	epoch, seq, replyTerm := r.epoch, r.lastStaged, r.term
	r.mu.Unlock()
	if !r.persist(epoch, seq, 0) {
		return false, 0
	}
	return granted, replyTerm
}

func (r *Raft) lastLogLocked() (index, term uint64) {
	last := r.log[len(r.log)-1]
	return last.Index, last.Term
}

// WaitLeader blocks until some replica in rs is leader, returning it.
// Test and bootstrap helper.
func WaitLeader(rs []*Raft, timeout time.Duration) (*Raft, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, r := range rs {
			if r.Role() == Leader {
				return r, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return nil, errors.New("raft: no leader elected within timeout")
}

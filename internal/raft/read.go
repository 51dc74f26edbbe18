package raft

import (
	"errors"
	"slices"
	"sync"
	"time"

	"mantle/internal/clock"
	"mantle/internal/types"
)

// Consistent reads (§5.1.3).
//
// A read is served at a read index: an index such that state applied up
// to it reflects every write acknowledged before the read began. Inside
// a lease that index costs no message; outside one, a ReadIndex round.
//
// Leader lease. The leader records, per voter, the send time of the
// latest lease-renewing message that voter acked; a voter's ReadIndex
// query counts as an ack of the last message it had from the leader. The
// lease ends leaseLen (an election timeout less a drift bound of a
// tenth) after the quorum-th newest of those times, the leader counting
// as one. Replicas read one process clock (clock.Mono), so the bound is
// margin, not measured skew. Messages renew only while a read wanted a
// lease within the last one (readAt), so a group nobody reads from holds
// none. Inside the lease the leader's read index is its commit index,
// once an entry of its own term has committed (Raft dissertation §6.4
// step 1; before that it refuses with ErrNotLeader, and it ships its
// no-op at once). Outside it the leader confirms with one heartbeat
// round (confirmLocked), which also renews the lease.
//
// Stickiness makes the lease sound: a voter that acked a renewing
// message or sent a query neither votes in a higher term, nor adopts
// it, nor campaigns for an election timeout after that message arrived;
// a leader, and one a higher-term reply deposed, until its lease ends; a
// restarted replica for an election timeout, as it may have forgotten a
// lease. Every election quorum meets the lease's quorum in a sticky
// voter, so no higher term has a leader while a lease of term T may be
// live.
//
// Read grants. A follower or learner that has served a ConsistentRead
// within the last lease asks for a grant on its replies; inside its
// lease the leader gives one, expiring no later than the lease and
// carrying its commit index, on its next message or on the ReadIndex
// reply itself. Until a grant expires the leader commits nothing the
// holder has not acked, and pushes each commit at once
// (maybeAdvanceCommit). So a holder's read index is the larger of the
// grant's commit index and the prefix it has verified against that
// leader (leaderView): a write acknowledged before the read began is in
// one or the other. The read waits for apply to reach it; if the grant
// runs out first, it takes a ReadIndex round.
//
// ReadIndex round. A follower or learner asks the leader for its (term,
// commitIndex) on the calling goroutine: uncontended, one round trip and
// nothing else. Readers that arrive while that query is in flight queue
// behind it and share one later query — the paper's "queries for the
// commitIndex are batched". The reply also advances the follower: within
// one term the leader's log is append-only and the follower has matched
// a prefix of it (leaderView), so what the leader reports committed
// inside that prefix is committed here too, with no wait for the next
// heartbeat.

var readWaitTimeout = 5 * time.Second

type readResult struct {
	idx uint64
	err error
}

// readState batches concurrent follower-read index queries: at most one
// leader query (a round) is in flight per replica, and a reader is only
// ever served by a round whose query started after the reader arrived.
type readState struct {
	mu      sync.Mutex
	running bool              // a round is in flight
	waiters []chan readResult // readers waiting for the next round
}

// leaderView is what a follower has learnt from the leader of one term:
// the prefix of its log that an AppendEntries or InstallSnapshot of that
// term matched against the leader's, and the highest commit index that
// leader has reported, by those or by a ReadIndex reply. The leader's
// log is append-only for the term, so min(commit, verified) is committed
// on this replica. Nothing carries over to another term: a prefix
// matched against one leader says nothing about what a different
// leader's commit index covers.
type leaderView struct {
	term     uint64
	verified uint64
	commit   uint64
}

// learnLocked folds a report from the leader of term into the view and
// raises commitIndex to what the view proves committed. A report from
// any term but the replica's current one is dropped. Caller holds r.mu.
func (r *Raft) learnLocked(term, verified, commit uint64) {
	if term != r.term {
		return
	}
	if r.view.term != term {
		r.view = leaderView{term: term}
	}
	r.view.verified = max(r.view.verified, verified)
	r.view.commit = max(r.view.commit, commit)
	if c := min(r.view.commit, r.view.verified); c > r.commitIndex {
		r.commitIndex = c
		r.kickApplier()
	}
}

// ReadIndex returns an index such that any read of state applied up to it
// observes every write acknowledged before the call. On the leader it is
// the commit index, refused with ErrNotLeader until the leader's own term
// has committed an entry and confirmed by a heartbeat round outside the
// lease; on a follower or learner it is the leader's commit index,
// fetched by this goroutine or shared with a batch of readers. The caller
// then waits for local apply to reach it (ConsistentRead).
func (r *Raft) ReadIndex() (uint64, error) {
	if r.stopped() {
		return 0, types.ErrStopped
	}
	if r.Role() == Leader {
		_, commit, ok := r.handleReadIndex()
		if !ok {
			return 0, types.ErrNotLeader
		}
		return commit, nil
	}

	r.reads.mu.Lock()
	if !r.reads.running {
		// Uncontended: run the round on this goroutine.
		r.reads.running = true
		r.reads.mu.Unlock()
		res := r.queryLeaderCommit()
		r.reads.mu.Lock()
		if len(r.reads.waiters) == 0 {
			r.reads.running = false
		} else {
			// Readers queued behind this round: their query must start
			// after they arrived, so they get rounds of their own.
			go r.serveReadBatches()
		}
		r.reads.mu.Unlock()
		return res.idx, res.err
	}
	ch := make(chan readResult, 1)
	r.reads.waiters = append(r.reads.waiters, ch)
	r.reads.mu.Unlock()

	select {
	case res := <-ch:
		return res.idx, res.err
	case <-r.life.Load().stop:
		return 0, types.ErrStopped
	}
}

// serveReadBatches drains waiter rounds: one leader RPC per round, shared
// by every waiter that had arrived by the time the round started. It is
// started by the inline round that found readers queued behind it, and
// owns reads.running until the queue is empty.
func (r *Raft) serveReadBatches() {
	for {
		r.reads.mu.Lock()
		waiters := r.reads.waiters
		r.reads.waiters = nil
		if len(waiters) == 0 {
			r.reads.running = false
			r.reads.mu.Unlock()
			return
		}
		r.reads.mu.Unlock()

		res := r.queryLeaderCommit()
		for _, ch := range waiters {
			ch <- res
		}
	}
}

// handleReadIndex is the leader's own read index (serveReadIndex).
func (r *Raft) handleReadIndex() (term, commit uint64, ok bool) {
	term, commit, _, ok = r.serveReadIndex(nil, readQuery{})
	return term, commit, ok
}

// readQuery is a follower's or learner's ReadIndex request: its term,
// when it last heard from the leader (a voter is sticky from then), and
// whether it asks for a read grant.
type readQuery struct {
	term       uint64
	contact    time.Duration
	wantsGrant bool
}

// serveReadIndex is the leader side of a ReadIndex round, for the query q
// from peer p, or for the leader's own read when p is nil. Role, term and
// commit index are read under one lock acquisition, so the reply cannot
// pair one term's commit index with another's term. ok is false off the
// leader, on a leader whose commit index does not yet reach an entry of
// its own term, and on one whose confirming round failed; grant is the
// read grant p asked for, zero if none.
func (r *Raft) serveReadIndex(p *peer, q readQuery) (term, commit uint64, grant time.Duration, ok bool) {
	if r.stopped() {
		return 0, 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != Leader || r.entryAtLocked(r.commitIndex).Term != r.term {
		return r.term, r.commitIndex, 0, false
	}
	now := clock.Mono()
	r.readAt = now
	if p != nil && !p.IsLearner() && q.term == r.term {
		r.noteAckLocked(p, q.contact)
	}
	if now >= r.leaseEnd && !r.confirmLocked(now) {
		return r.term, r.commitIndex, 0, false
	}
	if p != nil && q.wantsGrant {
		grant = r.grantLocked(p, clock.Mono())
	}
	return r.term, r.commitIndex, grant, true
}

// confirmLocked is a leader read outside the lease: one heartbeat round,
// marked as renewing, which holds once a quorum of voters has acked a
// message sent at or after start — so it also makes the lease live. It
// fails when leadership ends or after an election timeout. Caller holds
// r.mu, which is released while it waits.
func (r *Raft) confirmLocked(start time.Duration) bool {
	r.metrics.readRounds.Add(1)
	term, d := r.term, r.cfg.ElectionTimeout
	kick(r.kicks...)
	wake := time.AfterFunc(d, func() {
		r.mu.Lock()
		r.leaseCond.Broadcast()
		r.mu.Unlock()
	})
	defer wake.Stop()
	for r.leaseEnd < start+r.leaseLen() {
		if r.role != Leader || r.term != term || r.stopped() || clock.Mono()-start >= d {
			return false
		}
		r.leaseCond.Wait()
	}
	return true
}

// leaseLen is how long a lease runs past the send time of the message
// that renewed it: an election timeout less a drift bound.
func (r *Raft) leaseLen() time.Duration {
	return r.cfg.ElectionTimeout - r.cfg.ElectionTimeout/10
}

// stickyLocked reports whether the replica must stay out of elections:
// neither vote in a higher term nor campaign. Caller holds r.mu.
func (r *Raft) stickyLocked() bool {
	now := clock.Mono()
	return now < r.stickyUntil || now < r.leaseEnd
}

// leaseOffer is what a leader's AppendEntries carries for leases: whether
// it renews the leader lease, and the expiry of a read grant for a
// replica that asked for one (zero: none).
type leaseOffer struct {
	renew bool
	grant time.Duration
}

// leaseOfferLocked is the offer for a message to p sent at now. A grant
// request buys one grant: a peer that stops replying — cut off, crashed —
// stops being granted, so it holds up commits for one lease at most.
// Caller holds r.mu.
func (r *Raft) leaseOfferLocked(p *peer, now time.Duration) leaseOffer {
	o := leaseOffer{renew: r.readAt != 0 && now-r.readAt < r.leaseLen()}
	if p.wantsGrant {
		p.wantsGrant = false
		o.grant = r.grantLocked(p, now)
	}
	return o
}

// grantLocked gives p a read grant: only inside the leader lease, never
// past its end, and counted in the commit rule from before it is sent,
// whether or not it arrives. Zero means none. Caller holds r.mu.
func (r *Raft) grantLocked(p *peer, now time.Duration) time.Duration {
	until := min(r.leaseEnd, now+r.leaseLen())
	if now >= until {
		return 0
	}
	p.granted = max(p.granted, until)
	return until
}

// noteReplyLocked folds a reply of the leader's term into the lease: a
// renewing message's ack renews the lease, and a replica asking for a
// grant is reading, so the lease stays wanted. Caller holds r.mu.
func (r *Raft) noteReplyLocked(p *peer, offer leaseOffer, sent time.Duration, wantsGrant bool) {
	p.wantsGrant = wantsGrant
	if wantsGrant {
		r.readAt = max(r.readAt, sent)
	}
	if offer.renew && !p.IsLearner() {
		r.noteAckLocked(p, sent)
	}
}

// noteAckLocked records that voter p acked a renewing message sent at
// sent, and moves the lease end: the quorum-th newest ack, counting the
// leader's own as now, plus leaseLen. Caller holds r.mu.
func (r *Raft) noteAckLocked(p *peer, sent time.Duration) {
	if sent <= p.acked {
		return
	}
	p.acked = sent
	var buf [8]time.Duration // groups up to 9 voters need no heap
	acks := buf[:0]
	for _, q := range r.peers {
		if !q.IsLearner() {
			acks = append(acks, q.acked)
		}
	}
	slices.Sort(acks)
	if t := acks[len(acks)-r.voters/2]; t > 0 && t+r.leaseLen() > r.leaseEnd {
		r.leaseEnd = t + r.leaseLen()
		r.leaseCond.Broadcast()
	}
}

// readGrant is a read grant this replica holds from the leader of term:
// until its expiry that leader commits nothing this replica has not
// acked, and it had committed commit when it gave the grant.
type readGrant struct {
	term, commit uint64
	until        time.Duration
}

// wantsGrantLocked reports whether the replica has served a consistent
// read within the last lease, and so asks for a grant. Caller holds r.mu.
func (r *Raft) wantsGrantLocked(now time.Duration) bool {
	return r.role != Leader && r.readAt != 0 && now-r.readAt < r.leaseLen()
}

// queryLeaderCommit issues one RPC to the current leader for its commit
// index and folds the reply — and a read grant, if it carries one — into
// this replica's view of that leader.
func (r *Raft) queryLeaderCommit() readResult {
	r.metrics.readRounds.Add(1)
	r.mu.Lock()
	leaderID := r.leaderID
	q := readQuery{term: r.term, contact: r.contactAt, wantsGrant: r.wantsGrantLocked(clock.Mono())}
	if !r.cfg.Learner && leaderID != "" {
		// The leader counts the query as an ack of its last message here,
		// as if that message had renewed the lease: stay out of elections
		// for as long as it would have kept this voter out. Still in that
		// leader's term, the voter has voted in no later one since.
		r.stickyUntil = max(r.stickyUntil, r.contactAt+r.cfg.ElectionTimeout)
	}
	r.mu.Unlock()
	leader, ok := r.peers[leaderID]
	if !ok {
		return readResult{err: types.ErrNotLeader}
	}
	if err := leader.link.Deliver(); err != nil {
		// Leader unreachable (partition or blackhole): surface the fabric
		// error so callers can distinguish "no leader known" from "leader
		// cut off" and degrade accordingly.
		return readResult{err: err}
	}
	term, commit, grant, ok := leader.serveReadIndex(leader.peers[r.id], q)
	if !ok {
		return readResult{err: types.ErrNotLeader}
	}
	r.mu.Lock()
	r.learnLocked(term, 0, commit)
	if grant > 0 && term == r.term {
		r.grant = readGrant{term: term, commit: commit, until: grant}
	}
	r.mu.Unlock()
	return readResult{idx: commit}
}

// leaseIndex is the read index inside a lease, with no message: on the
// leader its commit index, once its own term has committed an entry; on a
// grant holder the larger of the grant's commit index and the prefix it
// has verified. until is when the lease or grant ends; ok is false
// outside one, and applied reports that the replica has applied the
// index already. It also marks the replica as reading, so a leader's
// messages renew the lease and a holder's replies ask for a grant.
func (r *Raft) leaseIndex() (idx uint64, until time.Duration, ok, applied bool) {
	now := clock.Mono()
	r.mu.Lock()
	r.readAt = now
	if r.role == Leader {
		idx, until = r.commitIndex, r.leaseEnd
		ok = r.entryAtLocked(idx).Term == r.term
	} else {
		idx, until = r.grant.commit, r.grant.until
		ok = r.grant.term == r.term
		if r.view.term == r.grant.term {
			idx = max(idx, r.view.verified)
		}
	}
	ok = ok && now < until && !r.stopped()
	applied = ok && r.lastApplied >= idx
	r.mu.Unlock()
	if ok {
		r.metrics.leaseReads.Add(1)
	}
	return idx, until, ok, applied
}

// ConsistentRead performs fn once the replica is read-consistent: it
// obtains a read index — inside the leader lease or a read grant when
// the replica holds a live one, else by ReadIndex — and waits for local
// apply to reach it. Works on the leader, followers, and learners.
func (r *Raft) ConsistentRead(fn func() error) error {
	idx, until, ok, applied := r.leaseIndex()
	if applied {
		return fn()
	}
	if ok {
		err := r.waitApplied(idx, min(until-clock.Mono(), readWaitTimeout))
		if err == nil {
			return fn()
		}
		if !errors.Is(err, types.ErrTimeout) {
			return err
		}
		// The lease ran out before its read index applied (a holder's
		// leader stopped pushing commits): take a ReadIndex round.
	}
	idx, err := r.ReadIndex()
	if err != nil {
		return err
	}
	if err := r.waitApplied(idx, readWaitTimeout); err != nil {
		return err
	}
	return fn()
}

package repl

import (
	"sync"

	"mantle/internal/clock"
	"mantle/internal/storage"
)

// Source is the primary-site half of the replication plane: it receives
// every committed mutation batch from the shards (via tafdb's ReplSink
// wiring, whose interface it satisfies structurally) and maintains the
// per-shard oplogs. Cross-shard transactions are pre-stamped — tafdb
// registers the attempt-qualified transaction id with its piece count
// before the 2PC runs — so all pieces of one transaction share a single
// HLC and are recognisable as one atomic group downstream.
type Source struct {
	clk  *clock.Clock
	logs []*Oplog

	mu     sync.Mutex
	stamps map[string]*stamp
}

type stamp struct {
	// ts stays zero until the first piece commits: assigning the HLC at
	// first-commit time (not at registration) keeps it ordered after any
	// conflicting single-shard write that lock-serialised ahead of the
	// transaction's prepare round, so LWW at the secondary agrees with
	// commit order at the primary.
	ts     clock.Timestamp
	pieces int
	left   int // commits not yet seen; the stamp is dropped at zero
}

// NewSource creates a source for a primary with the given shard count.
// site feeds the HLC tie-break; give each site a distinct id.
func NewSource(site uint16, shards int) *Source {
	s := &Source{
		clk:    clock.New(site),
		logs:   make([]*Oplog, shards),
		stamps: make(map[string]*stamp),
	}
	for i := range s.logs {
		s.logs[i] = &Oplog{}
	}
	return s
}

// Shards returns the shard count.
func (s *Source) Shards() int { return len(s.logs) }

// Log returns shard i's oplog.
func (s *Source) Log(i int) *Oplog { return s.logs[i] }

// StampTxn registers a transaction about to commit: all of its pieces
// will share one HLC (assigned when the first piece commits) and carry
// the given piece count. Called by tafdb before the 2PC rounds run
// (tafdb.ReplSink).
func (s *Source) StampTxn(txnID string, pieces int) {
	s.mu.Lock()
	s.stamps[txnID] = &stamp{pieces: pieces, left: pieces}
	s.mu.Unlock()
}

// ForgetTxn drops a registered stamp (aborted or failed attempts; a
// no-op for unknown ids). Called by tafdb after each attempt resolves.
func (s *Source) ForgetTxn(txnID string) {
	s.mu.Lock()
	delete(s.stamps, txnID)
	s.mu.Unlock()
}

// Commit receives one committed batch from shard (tafdb.ReplSink). It
// runs under the shard mutex, so appends are in commit order; keep it
// allocation-light and never call back into the shard.
func (s *Source) Commit(shard int, seq uint64, txnID string, muts []storage.Mutation) {
	ts, pieces := s.stampFor(txnID)
	s.logs[shard].Append(Record{
		Shard:  shard,
		Seq:    seq,
		HLC:    ts,
		TxnID:  txnID,
		Pieces: pieces,
		Muts:   muts,
		Bytes:  storage.BatchBytes(muts),
	})
}

// stampFor resolves the HLC and piece count for a committing batch:
// the pre-registered stamp when one exists, a fresh single-piece stamp
// otherwise (relaxed applies and unstamped transactions).
func (s *Source) stampFor(txnID string) (clock.Timestamp, int) {
	if txnID != "" {
		s.mu.Lock()
		if st, ok := s.stamps[txnID]; ok {
			if st.ts.IsZero() {
				st.ts = s.clk.Now()
			}
			ts, pieces := st.ts, st.pieces
			st.left--
			if st.left <= 0 {
				delete(s.stamps, txnID)
			}
			s.mu.Unlock()
			return ts, pieces
		}
		s.mu.Unlock()
	}
	return s.clk.Now(), 1
}

// GC trims every shard's oplog up to the given acknowledged sequences
// (one per shard — the subscriber low watermark), returning the total
// records dropped. Sequences beyond a shard's tip are clamped.
func (s *Source) GC(acked []uint64) int {
	total := 0
	for i, l := range s.logs {
		if i >= len(acked) {
			break
		}
		total += l.Trim(acked[i])
	}
	return total
}

// SourceStats aggregates oplog accounting across shards.
type SourceStats struct {
	Records int
	Bytes   int64
	Trimmed int64
}

// Stats snapshots the retained-oplog accounting.
func (s *Source) Stats() SourceStats {
	var out SourceStats
	for _, l := range s.logs {
		out.Records += l.Len()
		out.Bytes += l.Bytes()
		out.Trimmed += l.Trimmed()
	}
	return out
}

package storage

import (
	"fmt"

	"mantle/internal/clock"
	"mantle/internal/types"
	"mantle/internal/wire"
)

// WAL record codec: a shard logs each committed batch as one packed
// record — a header naming the commit, then the mutations as a
// per-mutation fixed header followed by the varlen row name — instead of
// retained []Mutation slices. A Mutation is 120+ bytes of Go structs
// (two string headers, a time.Time, padding) per logged write; the
// packed record averages ~20 bytes for the same information, and one
// []byte per batch replaces per-mutation boxed values in the log's
// working set. Since the WAL of this reproduction lives in memory for
// the life of the shard, its encoding is as much a part of the
// namespace's resident footprint as the B-tree itself.
//
// Layout per record: the header (RecordHeader)
//
//	txnID     uvarint length + bytes ("" for a relaxed apply)
//	hlc       wall varint, logical varint, site uvarint
//	pieces    uvarint
//
// then the batch: uvarint mutation count, then per mutation:
//
//	kind      byte    (MutKind)
//	flags     byte    (bit0 IfAbsent, bit1 MustExist)
//	wantKind  byte    (types.EntryKind, 0 = unset)
//	pid       uvarint
//	nameLen   uvarint + name bytes
//	MutPut:       id uvarint, entryKind byte, perm uvarint,
//	              size varint, link varint, mtime varint, owner uvarint
//	MutDeltaAttr: linkDelta varint, sizeDelta varint
//
// Entry.Pid/Name are not encoded for MutPut: entries mirror their row
// key (the same invariant the packed B-tree rows rely on), so decode
// reconstructs them from the key columns.

// RecordHeader heads every shard WAL record. The shard writes it at
// staging, under the mutex that fixes the record's sequence number, so
// the log is the replication stream as it stands: a site link ships the
// durable records and the secondary groups a transaction's pieces by
// TxnID and Pieces.
type RecordHeader struct {
	// TxnID is the committing transaction ("" for a relaxed apply).
	TxnID string
	// HLC is the site clock's reading at staging (zero when the shard
	// has no clock): strictly increasing along the log, it orders the
	// record's writes for last-writer-wins on the secondary.
	HLC clock.Timestamp
	// Pieces is how many shards the transaction spans (1 when it is a
	// relaxed apply or touches one shard).
	Pieces int
}

// maxHeaderLen bounds a header's fixed fields: the txnID length, the
// three HLC varints and the piece count.
const maxHeaderLen = 5 + 10 + 5 + 3 + 5

const (
	mutFlagIfAbsent  = 1 << 0
	mutFlagMustExist = 1 << 1
)

// appendMutation encodes m onto w.
func appendMutation(w *wire.Writer, m *Mutation) {
	var flags byte
	if m.IfAbsent {
		flags |= mutFlagIfAbsent
	}
	if m.MustExist {
		flags |= mutFlagMustExist
	}
	w.Byte(byte(m.Kind))
	w.Byte(flags)
	w.Byte(byte(m.WantKind))
	w.Uvarint(uint64(m.Key.Pid))
	w.String(m.Key.Name)
	switch m.Kind {
	case MutPut:
		w.Uvarint(uint64(m.Entry.ID))
		w.Byte(byte(m.Entry.Kind))
		w.Uvarint(uint64(m.Entry.Perm))
		w.Varint(m.Entry.Attr.Size)
		w.Varint(m.Entry.Attr.LinkCount)
		w.Varint(packTime(m.Entry.Attr.MTime))
		w.Uvarint(uint64(m.Entry.Attr.Owner))
	case MutDeltaAttr:
		w.Varint(m.Delta.LinkCount)
		w.Varint(m.Delta.Size)
	}
}

// maxCountLen is the longest uvarint a batch's mutation count takes.
const maxCountLen = 5

// encodeRecord packs a header and a mutation batch into one record.
func encodeRecord(h RecordHeader, muts []Mutation) []byte {
	// Size estimate: fixed fields rarely exceed ~24 bytes plus the name.
	size := maxHeaderLen + len(h.TxnID) + maxCountLen
	for i := range muts {
		size += 40 + len(muts[i].Key.Name)
	}
	w := wire.NewWriter(size)
	w.String(h.TxnID)
	w.Varint(h.HLC.Wall)
	w.Varint(int64(h.HLC.Logical))
	w.Uvarint(uint64(h.HLC.Site))
	w.Uvarint(uint64(h.Pieces))
	appendBatch(&w, muts)
	return w.Bytes()
}

// appendBatch encodes a mutation batch onto w.
func appendBatch(w *wire.Writer, muts []Mutation) {
	w.Uvarint(uint64(len(muts)))
	for i := range muts {
		appendMutation(w, &muts[i])
	}
}

// DecodeRecord reads a shard WAL record: it returns the header and
// invokes apply for each mutation in order. A malformed or truncated
// record is an error, never a panic.
func DecodeRecord(rec []byte, apply func(Mutation)) (RecordHeader, error) {
	r := wire.NewReader(rec)
	h := RecordHeader{TxnID: r.String()}
	h.HLC.Wall = r.Varint()
	h.HLC.Logical = int32(r.Varint())
	h.HLC.Site = uint16(r.Uvarint())
	h.Pieces = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return h, fmt.Errorf("wal record header: %w", err)
	}
	return h, decodeBatch(rec[r.Offset():], apply)
}

// decodeBatch walks a packed batch, invoking apply for each mutation in
// order. Records are produced by encodeRecord within the same process, so
// malformed input is a programming error, reported as one.
func decodeBatch(rec []byte, apply func(Mutation)) error {
	r := wire.NewReader(rec)
	n := r.Uvarint()
	for i := uint64(0); i < n; i++ {
		m := Mutation{Kind: MutKind(r.Byte())}
		flags := r.Byte()
		m.IfAbsent = flags&mutFlagIfAbsent != 0
		m.MustExist = flags&mutFlagMustExist != 0
		m.WantKind = types.EntryKind(r.Byte())
		m.Key = types.Key{Pid: types.InodeID(r.Uvarint()), Name: r.String()}
		switch m.Kind {
		case MutPut:
			m.Entry = types.Entry{
				Pid:  m.Key.Pid,
				Name: m.Key.Name,
				ID:   types.InodeID(r.Uvarint()),
				Kind: types.EntryKind(r.Byte()),
				Perm: types.Perm(r.Uvarint()),
				Attr: types.Attr{
					Size:      r.Varint(),
					LinkCount: r.Varint(),
					MTime:     unpackTime(r.Varint()),
					Owner:     uint32(r.Uvarint()),
				},
			}
		case MutDeltaAttr:
			m.Delta = AttrDelta{LinkCount: r.Varint(), Size: r.Varint()}
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("wal record: mutation %d of %d: %w", i, n, err)
		}
		apply(m)
	}
	return r.Err() // a batch count that did not decode
}

package storage

import (
	"encoding/binary"
	"fmt"

	"mantle/internal/types"
	"mantle/internal/wire"
)

// WAL record codec: mutation batches are stored as packed bytes — a
// per-mutation fixed header followed by the varlen row name — instead of
// retained []Mutation slices. A Mutation is 120+ bytes of Go structs
// (two string headers, a time.Time, padding) per logged write; the
// packed record averages ~20 bytes for the same information, and one
// []byte per batch replaces per-mutation boxed values in the log's
// working set. Since the WAL of this reproduction lives in memory for
// the life of the shard, its encoding is as much a part of the
// namespace's resident footprint as the B-tree itself.
//
// Layout per batch: uvarint mutation count, then per mutation:
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

const (
	mutFlagIfAbsent  = 1 << 0
	mutFlagMustExist = 1 << 1
)

// appendMutation encodes m onto buf.
func appendMutation(buf []byte, m *Mutation) []byte {
	var flags byte
	if m.IfAbsent {
		flags |= mutFlagIfAbsent
	}
	if m.MustExist {
		flags |= mutFlagMustExist
	}
	buf = append(buf, byte(m.Kind), flags, byte(m.WantKind))
	buf = binary.AppendUvarint(buf, uint64(m.Key.Pid))
	buf = binary.AppendUvarint(buf, uint64(len(m.Key.Name)))
	buf = append(buf, m.Key.Name...)
	switch m.Kind {
	case MutPut:
		buf = binary.AppendUvarint(buf, uint64(m.Entry.ID))
		buf = append(buf, byte(m.Entry.Kind))
		buf = binary.AppendUvarint(buf, uint64(m.Entry.Perm))
		buf = binary.AppendVarint(buf, m.Entry.Attr.Size)
		buf = binary.AppendVarint(buf, m.Entry.Attr.LinkCount)
		buf = binary.AppendVarint(buf, packTime(m.Entry.Attr.MTime))
		buf = binary.AppendUvarint(buf, uint64(m.Entry.Attr.Owner))
	case MutDeltaAttr:
		buf = binary.AppendVarint(buf, m.Delta.LinkCount)
		buf = binary.AppendVarint(buf, m.Delta.Size)
	}
	return buf
}

// encodeBatch packs a mutation batch into one record.
func encodeBatch(muts []Mutation) []byte {
	// Size estimate: fixed fields rarely exceed ~24 bytes plus the name.
	size := binary.MaxVarintLen32
	for i := range muts {
		size += 40 + len(muts[i].Key.Name)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(muts)))
	for i := range muts {
		buf = appendMutation(buf, &muts[i])
	}
	return buf
}

// BatchBytes estimates the wire size of a mutation batch using the WAL
// record layout — the replication plane's lag-bytes accounting, without
// paying for an actual encode.
func BatchBytes(muts []Mutation) int {
	size := binary.MaxVarintLen32
	for i := range muts {
		size += 24 + len(muts[i].Key.Name)
	}
	return size
}

// decodeBatch walks a packed record, invoking apply for each mutation in
// order. Records are produced by encodeBatch within the same process, so
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

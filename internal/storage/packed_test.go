package storage

import (
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mantle/internal/clock"
	"mantle/internal/types"
	"mantle/internal/wire"
)

// entryEqual compares entries with time.Time compared by instant (the
// packed form sheds the monotonic reading and location, which no stored
// row retains meaning from).
func entryEqual(a, b types.Entry) bool {
	if !a.Attr.MTime.Equal(b.Attr.MTime) {
		return false
	}
	a.Attr.MTime, b.Attr.MTime = time.Time{}, time.Time{}
	return a == b
}

// arbitraryEntry builds an entry for key k from fuzz inputs, exercising
// extreme attribute values and both MTime representations.
func arbitraryEntry(k types.Key, id uint64, kind uint8, perm uint16,
	size, link int64, mtime int64, owner uint32, zeroTime bool) types.Entry {
	e := types.Entry{
		Pid:  k.Pid,
		Name: k.Name,
		ID:   types.InodeID(id),
		Kind: types.EntryKind(kind),
		Perm: types.Perm(perm),
		Attr: types.Attr{
			Size:      size,
			LinkCount: link,
			Owner:     owner,
		},
	}
	if !zeroTime {
		e.Attr.MTime = time.Unix(0, mtime)
	}
	return e
}

// TestPackedRoundTripQuick is the quick-check round-trip property: for
// arbitrary entries (including zero-length names and max-size attrs),
// pack followed by decode under the same key returns an equal entry and
// preserves the version.
func TestPackedRoundTripQuick(t *testing.T) {
	f := func(pid uint64, name string, id uint64, kind uint8, perm uint16,
		size, link int64, mtime int64, owner uint32, zeroTime bool, version uint64) bool {
		k := types.Key{Pid: types.InodeID(pid), Name: name}
		e := arbitraryEntry(k, id, kind, perm, size, link, mtime, owner, zeroTime)
		p := pack(e, version)
		back := p.entry(k)
		return entryEqual(e, back) && p.version == version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPackedRoundTripEdges pins the edge cases the fuzz might miss:
// zero-length names, max-size attrs, and the zero time sentinel.
func TestPackedRoundTripEdges(t *testing.T) {
	cases := []types.Entry{
		{}, // fully zero entry under a zero key
		{Name: "", Pid: 7, ID: 9, Kind: types.KindObject},
		{Name: strings.Repeat("n", 255), Pid: math.MaxUint64, ID: math.MaxUint64,
			Kind: types.KindDir, Perm: math.MaxUint16,
			Attr: types.Attr{Size: math.MaxInt64, LinkCount: math.MinInt64,
				MTime: time.Unix(0, math.MaxInt64), Owner: math.MaxUint32}},
		{Name: "\x00attr", Pid: 3, ID: 3, Kind: types.KindDir,
			Attr: types.Attr{LinkCount: -1, Size: -42}},
	}
	for i, e := range cases {
		k := types.Key{Pid: e.Pid, Name: e.Name}
		p := pack(e, uint64(i))
		if back := p.entry(k); !entryEqual(e, back) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, back, e)
		}
	}
}

// encodeBatch packs a bare mutation batch: a record's body, after its
// header.
func encodeBatch(muts []Mutation) []byte {
	w := wire.NewWriter(0)
	appendBatch(&w, muts)
	return w.Bytes()
}

// TestWALCodecRoundTripQuick: encodeRecord followed by DecodeRecord
// reproduces the header and every mutation, across all kinds and flag
// combinations and the three kinds of header a shard writes; a record
// cut anywhere short of its end is an error, not a panic.
func TestWALCodecRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	names := []string{"", "a", "\x00attr", "\x00attr\x00123", strings.Repeat("x", 200)}
	arbitraryMut := func() Mutation {
		k := types.Key{Pid: types.InodeID(r.Uint64()), Name: names[r.Intn(len(names))]}
		m := Mutation{
			Kind:      MutKind(r.Intn(3)),
			Key:       k,
			IfAbsent:  r.Intn(2) == 0,
			MustExist: r.Intn(2) == 0,
			WantKind:  types.EntryKind(r.Intn(3)),
		}
		switch m.Kind {
		case MutPut:
			m.Entry = arbitraryEntry(k, r.Uint64(), uint8(r.Intn(3)), uint16(r.Uint32()),
				r.Int63()-r.Int63(), r.Int63()-r.Int63(), r.Int63(), r.Uint32(), r.Intn(4) == 0)
		case MutDeltaAttr:
			m.Delta = AttrDelta{LinkCount: r.Int63() - r.Int63(), Size: r.Int63() - r.Int63()}
		}
		return m
	}
	hlc := clock.Timestamp{Wall: 1700000000123456789, Logical: 7, Site: 1}
	headers := []RecordHeader{
		{Pieces: 1},                              // a relaxed apply on a shard without a site clock
		{TxnID: "taf-42#3", HLC: hlc, Pieces: 3}, // one piece of a multi-piece commit
	}
	// The empty batch: a migration's guard-only source piece.
	empty := RecordHeader{TxnID: "taf-9#0", HLC: hlc, Pieces: 2}
	rec := encodeRecord(empty, nil)
	if h, err := DecodeRecord(rec, func(m Mutation) { t.Fatalf("empty batch decoded %+v", m) }); err != nil || h != empty {
		t.Fatalf("empty batch: header %+v, %v; want %+v", h, err, empty)
	}
	for n := range rec {
		if _, err := DecodeRecord(rec[:n], func(Mutation) {}); err == nil {
			t.Fatalf("a record truncated to %d of %d bytes decoded", n, len(rec))
		}
	}
	for round := 0; round < 500; round++ {
		in := make([]Mutation, 1+r.Intn(8))
		for i := range in {
			in[i] = arbitraryMut()
		}
		hin := headers[round%len(headers)]
		rec := encodeRecord(hin, in)
		var out []Mutation
		h, err := DecodeRecord(rec, func(m Mutation) { out = append(out, m) })
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if h != hin {
			t.Fatalf("round %d: header %+v, want %+v", round, h, hin)
		}
		if len(out) != len(in) {
			t.Fatalf("round %d: %d mutations decoded, want %d", round, len(out), len(in))
		}
		for i := range in {
			a, b := in[i], out[i]
			if !a.Entry.Attr.MTime.Equal(b.Entry.Attr.MTime) {
				t.Fatalf("round %d mut %d: mtime %v != %v", round, i, a.Entry.Attr.MTime, b.Entry.Attr.MTime)
			}
			a.Entry.Attr.MTime, b.Entry.Attr.MTime = time.Time{}, time.Time{}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d mut %d:\n got %+v\nwant %+v", round, i, b, a)
			}
		}
	}
}

// TestWALBatchGoldenBytes pins the WAL record layout: a record logged by
// an earlier build must replay, so encodeBatch's bytes may not move.
func TestWALBatchGoldenBytes(t *testing.T) {
	const golden = "020001002a066f626a2dc3a9ac0202070902aab4aed8c7bfce972f0702020101046c6f677302ff3f"
	in := []Mutation{
		{Kind: MutPut, Key: types.Key{Pid: 42, Name: "obj-é"}, IfAbsent: true,
			Entry: types.Entry{Pid: 42, Name: "obj-é", ID: 300, Kind: types.KindObject, Perm: types.PermAll,
				Attr: types.Attr{Size: -5, LinkCount: 1, MTime: time.Unix(0, 1700000000123456789), Owner: 7}}},
		{Kind: MutDeltaAttr, Key: types.Key{Pid: 1, Name: "logs"}, MustExist: true, WantKind: types.KindDir,
			Delta: AttrDelta{LinkCount: 1, Size: -4096}},
	}
	if got := hex.EncodeToString(encodeBatch(in)); got != golden {
		t.Fatalf("encodeBatch = %s\n          want %s", got, golden)
	}
	rec, _ := hex.DecodeString(golden)
	var out []Mutation
	if err := decodeBatch(rec, func(m Mutation) { out = append(out, m) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decodeBatch = %+v\n       want %+v", out, in)
	}
}

// FuzzDecodeBatch: a record that does not decode is an error, never an
// out-of-range panic, and one that does survives a re-encode.
func FuzzDecodeBatch(f *testing.F) {
	k := types.Key{Pid: 42, Name: "o"}
	f.Add(encodeBatch([]Mutation{
		{Kind: MutPut, Key: k, IfAbsent: true, Entry: types.Entry{Pid: 42, Name: "o", ID: 300, Kind: types.KindObject,
			Attr: types.Attr{Size: -5, LinkCount: 1, MTime: time.Unix(0, 1700000000123456789), Owner: 7}}},
		{Kind: MutDeltaAttr, Key: types.Key{Pid: 1, Name: "logs"}, MustExist: true, Delta: AttrDelta{LinkCount: 1, Size: -4096}},
		{Kind: MutDelete, Key: k, WantKind: types.KindObject},
	}))
	f.Add(encodeBatch(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1}) // a count far beyond the record
	f.Fuzz(func(t *testing.T, data []byte) {
		var muts []Mutation
		if decodeBatch(data, func(m Mutation) { muts = append(muts, m) }) != nil {
			return
		}
		var again []Mutation
		if err := decodeBatch(encodeBatch(muts), func(m Mutation) { again = append(again, m) }); err != nil || !reflect.DeepEqual(again, muts) {
			t.Fatalf("re-decode = %+v, %v; want %+v", again, err, muts)
		}
	})
}

func TestShardBulkLoad(t *testing.T) {
	s := NewShard("bulk")
	// Bootstrap row, as CreateRoot would leave it.
	boot := types.Entry{Pid: 1, Name: "\x00attr", ID: 1, Kind: types.KindDir, Perm: types.PermAll}
	if err := s.Apply([]Mutation{{Kind: MutPut, Key: types.Key{Pid: 1, Name: "\x00attr"}, Entry: boot}}); err != nil {
		t.Fatal(err)
	}
	const n = 10000
	ok := s.BulkLoad(n, func(i int) (types.Key, types.Entry) {
		k := types.Key{Pid: 2, Name: "f" + string(rune('a'+i/1000)) + "-" + string(rune('0'+(i/100)%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i%10))}
		return k, types.Entry{Pid: k.Pid, Name: k.Name, ID: types.InodeID(100 + i), Kind: types.KindObject}
	})
	if !ok {
		t.Fatal("BulkLoad refused without a WAL")
	}
	if got := s.Len(); got != n+1 {
		t.Fatalf("Len = %d, want %d", got, n+1)
	}
	// The bootstrap row survived the merge.
	if r, ok := s.Get(types.Key{Pid: 1, Name: "\x00attr"}); !ok || r.Entry.ID != 1 || !r.Entry.IsDir() {
		t.Fatalf("bootstrap row lost: %+v ok=%v", r, ok)
	}
	// Loaded rows are readable and correctly decoded.
	r, ok := s.Get(types.Key{Pid: 2, Name: "fa-000"})
	if !ok || r.Entry.ID != 100 || r.Entry.Kind != types.KindObject || r.Version != 1 {
		t.Fatalf("loaded row: %+v ok=%v", r, ok)
	}
	// Scans see everything in order.
	count, prev := 0, ""
	s.ScanChildren(2, func(r Row) bool {
		if count > 0 && r.Entry.Name <= prev {
			t.Fatalf("scan out of order: %q after %q", r.Entry.Name, prev)
		}
		prev = r.Entry.Name
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan saw %d children, want %d", count, n)
	}
	// Mutations after a bulk load behave normally.
	if err := s.Apply([]Mutation{{Kind: MutDeltaAttr, Key: types.Key{Pid: 2, Name: "fa-000"}, Delta: AttrDelta{Size: 5}}}); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.Get(types.Key{Pid: 2, Name: "fa-000"}); r.Entry.Attr.Size != 5 || r.Version != 2 {
		t.Fatalf("post-load delta: %+v", r)
	}
}

func TestShardBulkLoadRefusesWAL(t *testing.T) {
	s := NewShard("waled")
	s.AttachWAL(NewWAL(0))
	if s.BulkLoad(1, func(int) (types.Key, types.Entry) {
		return types.Key{Pid: 1, Name: "x"}, types.Entry{Pid: 1, Name: "x", ID: 2}
	}) {
		t.Fatal("BulkLoad accepted a shard with a WAL attached")
	}
	if s.Len() != 0 {
		t.Fatalf("refused load still inserted %d rows", s.Len())
	}
}

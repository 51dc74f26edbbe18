package heat

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// checkSlots asserts the representation invariant: at most k slots, all
// inside the one allocation, and idx and cells naming each other slot
// for slot.
func checkSlots(t *testing.T, tk *TopK[int]) {
	t.Helper()
	if len(tk.cells) > tk.k || cap(tk.cells) != tk.k {
		t.Fatalf("len %d cap %d, want len <= cap = k = %d", len(tk.cells), cap(tk.cells), tk.k)
	}
	if len(tk.idx) != len(tk.cells) {
		t.Fatalf("idx has %d keys, cells %d slots", len(tk.idx), len(tk.cells))
	}
	for i := range tk.cells {
		c := &tk.cells[i]
		if got, ok := tk.idx[c.key]; !ok || int(got) != i {
			t.Fatalf("slot %d holds key %d, idx says (%d, %v)", i, c.key, got, ok)
		}
		if n := c.count.Load(); n < 1 || c.err < 0 || c.err > n {
			t.Fatalf("slot %d: count %d err %d", i, n, c.err)
		}
	}
}

// checkSpaceSaving asserts Metwally's guarantees of a cumulative sketch
// against the exact per-key counts of the stream it saw.
func checkSpaceSaving(t *testing.T, tk *TopK[int], truth map[int]int64) {
	t.Helper()
	checkSlots(t, tk)
	var events, sum int64
	for _, n := range truth {
		events += n
	}
	items := tk.Snapshot()
	tracked := make(map[int]bool, len(items))
	minTracked := int64(0) // a sketch with room has evicted nothing
	if len(items) == tk.k {
		minTracked = items[len(items)-1].Count
	}
	for i, it := range items {
		sum += it.Count
		tracked[it.Key] = true
		if n := truth[it.Key]; n < it.Count-it.Err || n > it.Count {
			t.Fatalf("key %d: true count %d outside [%d, %d]", it.Key, n, it.Count-it.Err, it.Count)
		}
		if i > 0 && items[i-1].Count < it.Count {
			t.Fatalf("snapshot not in descending order at %d: %+v", i, items)
		}
	}
	if sum != events {
		t.Fatalf("counts sum to %d, %d events recorded", sum, events)
	}
	for key, n := range truth {
		if n > minTracked && !tracked[key] {
			t.Fatalf("key %d (true count %d) untracked while the minimum is %d", key, n, minTracked)
		}
	}
}

// quickCfg seeds testing/quick, so a failure names a stream that the
// next run draws again.
func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
}

// TestTopKSpaceSavingProperty drives seeded streams through sketches of
// random size and checks the space-saving invariants, mid-stream and at
// the end: uniform over twice as many keys as slots (every other record
// evicts) and Zipf (a stable head, a churning tail).
func TestTopKSpaceSavingProperty(t *testing.T) {
	run := func(seed int64, next func(r *rand.Rand, k int) func() int) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(48)
		tk, truth, draw := NewTopK[int](k), map[int]int64{}, next(r, k)
		for i := 0; i < 4000; i++ {
			key, n := draw(), int64(1+r.Intn(3))
			tk.RecordN(key, n)
			truth[key] += n
			if i%1000 == 999 {
				checkSpaceSaving(t, tk, truth)
			}
		}
		return true
	}
	uniform := func(seed int64) bool {
		return run(seed, func(r *rand.Rand, k int) func() int {
			return func() int { return r.Intn(2 * k) }
		})
	}
	zipf := func(seed int64) bool {
		return run(seed, func(r *rand.Rand, k int) func() int {
			z := rand.NewZipf(r, 1.1, 1, uint64(10*k))
			return func() int { return int(z.Uint64()) }
		})
	}
	if err := quick.Check(uniform, quickCfg()); err != nil {
		t.Fatalf("uniform: %v", err)
	}
	if err := quick.Check(zipf, quickCfg()); err != nil {
		t.Fatalf("zipf: %v", err)
	}
}

// TestTopKDecayProperty: a hotspot that moves every two half-lives over
// a noise floor wider than the sketch, with the clock injected through
// snapshotAt so only those folds run. Slots are evicted by the noise and
// swap-removed by the folds; after each phase the representation must
// agree with itself and that phase's hot key must lead; once everything
// has cooled the sketch is empty.
func TestTopKDecayProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(30)
		tk := NewTopKDecay[int](k, time.Second)
		// Ahead of the wall clock, so a miss's own fold is a no-op.
		now := time.Now().Add(time.Hour)
		tk.lastFold = now
		for phase := 0; phase < 6; phase++ {
			hot := 1_000_000 + phase
			for i := 0; i < 2000; i++ {
				if i%5 == 0 {
					tk.Record(r.Intn(4 * k))
				} else {
					tk.Record(hot)
				}
			}
			now = now.Add(2 * time.Second)
			items := tk.snapshotAt(now)
			checkSlots(t, tk)
			if len(items) == 0 || items[0].Key != hot {
				t.Fatalf("phase %d: hot key %d does not lead: %+v", phase, hot, items)
			}
		}
		if items := tk.snapshotAt(now.Add(time.Hour)); len(items) != 0 || tk.Len() != 0 || len(tk.idx) != 0 {
			t.Fatalf("cooled sketch still tracks %+v (idx %d)", items, len(tk.idx))
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestTopKSnapshotStable: keys of equal count come out in slot order, so
// two scrapes of an idle sketch render the same way.
func TestTopKSnapshotStable(t *testing.T) {
	tk := NewTopK[int](32)
	for i := 0; i < 64; i++ { // half the keys evict the other half: many ties
		tk.Record(i * 7919 % 64)
	}
	tk.RecordN(5, 10)
	first := tk.Snapshot()
	for i := 0; i < 20; i++ {
		if again := tk.Snapshot(); !reflect.DeepEqual(first, again) {
			t.Fatalf("idle sketch rendered two ways:\n%+v\n%+v", first, again)
		}
	}
}

// TestTopKRecordAllocs: a miss on a full sketch re-keys a slot in place.
// Round-robin over twice as many keys as slots misses on every record.
func TestTopKRecordAllocs(t *testing.T) {
	const k = 32
	tk := NewTopK[int](k)
	i := 0
	next := func() { tk.Record(i % (2 * k)); i++ }
	for i < 2*k {
		next()
	}
	if got := testing.AllocsPerRun(10000, next); got != 0 {
		t.Fatalf("Record on a full sketch allocates %.2f times per call, want 0", got)
	}
}

// BenchmarkTopKRecord puts the three record paths on record: a tracked
// key, a stream spread over twice the slots (half the records evict),
// and that stream from every CPU at once — the write-locked miss is the
// serialisation point on a host with more than one client.
func BenchmarkTopKRecord(b *testing.B) {
	const k = 32
	fill := func() *TopK[int] {
		tk := NewTopK[int](k)
		for i := 0; i < k; i++ {
			tk.Record(i)
		}
		return tk
	}
	b.Run("hit", func(b *testing.B) {
		tk := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Record(i % k)
		}
	})
	b.Run("miss_uniform_2k", func(b *testing.B) {
		tk, r := fill(), rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Record(r.Intn(2 * k))
		}
	})
	b.Run("miss_uniform_2k_parallel", func(b *testing.B) {
		tk := fill()
		var seed atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(seed.Add(1)))
			for pb.Next() {
				tk.Record(r.Intn(2 * k))
			}
		})
	})
}

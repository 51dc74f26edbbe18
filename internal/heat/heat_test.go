package heat

import (
	"sync"
	"testing"
	"time"
)

func TestTopKExactUnderCapacity(t *testing.T) {
	tk := NewTopK[string](8)
	for i := 0; i < 5; i++ {
		tk.Record("/a")
	}
	tk.RecordN("/b", 3)
	tk.Record("/c")
	items := tk.Snapshot()
	if len(items) != 3 {
		t.Fatalf("len = %d, want 3", len(items))
	}
	want := []Item[string]{{"/a", 5, 0}, {"/b", 3, 0}, {"/c", 1, 0}}
	for i, w := range want {
		if items[i] != w {
			t.Fatalf("items[%d] = %+v, want %+v", i, items[i], w)
		}
	}
}

func TestTopKEvictionAndErrorBounds(t *testing.T) {
	tk := NewTopK[string](2)
	tk.RecordN("/hot", 100)
	tk.RecordN("/warm", 10)
	// "/cold" evicts "/warm" (the minimum) and inherits its count as the
	// error bound: reported count 11, true count ∈ [1, 11].
	tk.Record("/cold")
	items := tk.Snapshot()
	if len(items) != 2 {
		t.Fatalf("len = %d, want 2", len(items))
	}
	if items[0].Key != "/hot" || items[0].Count != 100 || items[0].Err != 0 {
		t.Fatalf("top item = %+v", items[0])
	}
	if items[1].Key != "/cold" || items[1].Count != 11 || items[1].Err != 10 {
		t.Fatalf("evicting item = %+v", items[1])
	}
	if got := items[1].Count - items[1].Err; got != 1 {
		t.Fatalf("lower bound = %d, want 1 (the true count)", got)
	}
}

// The space-saving guarantee: any key with true count greater than the
// smallest tracked count must be present in the sketch.
func TestTopKHeavyHitterGuarantee(t *testing.T) {
	tk := NewTopK[int](4)
	// Heavy keys 0..2 with large counts, plus a stream of singletons.
	for round := 0; round < 200; round++ {
		tk.Record(0)
		tk.Record(1)
		if round%2 == 0 {
			tk.Record(2)
		}
		tk.Record(100 + round) // noise: 200 distinct one-shot keys
	}
	items := tk.Snapshot()
	found := map[int]Item[int]{}
	minTracked := int64(1 << 62)
	for _, it := range items {
		found[it.Key] = it
		if it.Count < minTracked {
			minTracked = it.Count
		}
	}
	// Any key whose true count exceeds the smallest tracked count must
	// be in the sketch; keys 0 and 1 (true count 200, the max possible
	// reported count) always qualify.
	for _, hot := range []int{0, 1} {
		it, ok := found[hot]
		if !ok {
			t.Fatalf("heavy key %d missing from sketch: %+v", hot, items)
		}
		if it.Count < 200 || it.Count-it.Err > 200 {
			t.Fatalf("key %d: true 200 outside [%d, %d]", hot, it.Count-it.Err, it.Count)
		}
	}
	// Key 2's true count is 100; it may only be absent if the minimum
	// tracked count has grown past it.
	if _, ok := found[2]; !ok && minTracked < 100 {
		t.Fatalf("key 2 (true 100) missing while min tracked = %d", minTracked)
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK[int](16)
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk.Record(i % 4) // 4 hot keys, always tracked
				if i%100 == 0 {
					tk.Record(1000 + w*per + i) // churn the eviction path
				}
				if i%50 == 0 {
					tk.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	items := tk.Snapshot()
	var total int64
	for _, it := range items {
		if it.Key < 4 {
			total += it.Count - it.Err
		}
	}
	// The 4 hot keys are inserted while the sketch is empty and never
	// evicted (their counts dominate), so no increment is lost.
	if want := int64(workers * per); total != want {
		t.Fatalf("hot-key count lower bounds sum to %d, want %d", total, want)
	}
}

func TestTopKReset(t *testing.T) {
	tk := NewTopK[string](4)
	tk.Record("/a")
	tk.Reset()
	if tk.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tk.Len())
	}
}

func TestRateFold(t *testing.T) {
	r := NewRate(time.Second)
	now := time.Now()
	r.last = now.Add(-time.Second)
	r.Add(1000)
	// One half-life at 1000 events/s from an EWMA of 0: weight 1/2.
	got := r.foldAt(now)
	if got < 499 || got > 501 {
		t.Fatalf("rate after one half-life = %v, want ~500", got)
	}
	if r.Total() != 1000 {
		t.Fatalf("total = %d", r.Total())
	}
	// A long idle window decays the estimate toward zero.
	r.last = now.Add(-10 * time.Second)
	got = r.foldAt(now)
	if got > 1 {
		t.Fatalf("rate after 10 idle half-lives = %v, want ~0", got)
	}
}

func TestRateShortWindowReturnsPrevious(t *testing.T) {
	r := NewRate(time.Second)
	r.ewma = 42
	r.last = time.Now()
	r.Add(1)
	if got := r.PerSecond(); got != 42 {
		t.Fatalf("rate inside min fold window = %v, want 42", got)
	}
}

func TestRateConcurrent(t *testing.T) {
	r := NewRate(time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(1)
				if i%100 == 0 {
					r.PerSecond()
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != 8000 {
		t.Fatalf("total = %d, want 8000", r.Total())
	}
}

// Regression for the demotion-staleness bug: on a decaying sketch, a
// hotspot that shifts must let the old hot key's count fade so the new
// one overtakes it — before decay, stale counts pinned the old hotspot
// at its peak forever and the hot-set could never shrink.
func TestTopKDecayShiftingHotspot(t *testing.T) {
	tk := NewTopKDecay[string](4, time.Second)
	now := time.Now()
	tk.mu.Lock()
	tk.lastFold = now
	tk.mu.Unlock()

	// Phase 1: "/old" is the hotspot.
	tk.RecordN("/old", 1000)
	items := tk.snapshotAt(now)
	if items[0].Key != "/old" || items[0].Count != 1000 {
		t.Fatalf("phase 1 top = %+v", items[0])
	}

	// Phase 2: "/old" goes silent for three half-lives (decaying to
	// ~125), then the hotspot shifts: "/new" arrives at a modest rate
	// and must overtake the stale peak.
	items = tk.snapshotAt(now.Add(3 * time.Second))
	if items[0].Key != "/old" || items[0].Count > 130 || items[0].Count < 120 {
		t.Fatalf("after 3 idle half-lives, top = %+v, want /old ~125", items[0])
	}
	tk.RecordN("/new", 300)
	items = tk.snapshotAt(now.Add(3 * time.Second))
	if items[0].Key != "/new" {
		t.Fatalf("after shift, top = %+v (old hotspot did not decay)", items)
	}
	var old *Item[string]
	for i := range items {
		if items[i].Key == "/old" {
			old = &items[i]
		}
	}
	if old == nil {
		t.Fatalf("/old dropped too early: %+v", items)
	}
	if old.Count > 130 || old.Count < 120 {
		t.Fatalf("/old after 3 half-lives = %d, want ~125", old.Count)
	}

	// Phase 3: fully cooled keys drop out entirely, freeing slots.
	items = tk.snapshotAt(now.Add(30 * time.Second))
	for _, it := range items {
		if it.Key == "/old" {
			t.Fatalf("/old still tracked after 30 half-lives: %+v", items)
		}
	}
}

// A cumulative sketch must behave exactly as before: no decay ever.
func TestTopKNoDecayWhenCumulative(t *testing.T) {
	tk := NewTopK[string](4)
	tk.RecordN("/a", 100)
	items := tk.snapshotAt(time.Now().Add(time.Hour))
	if len(items) != 1 || items[0].Count != 100 {
		t.Fatalf("cumulative sketch decayed: %+v", items)
	}
}

// Decay folds must not lose concurrent increments.
func TestTopKDecayConcurrent(t *testing.T) {
	tk := NewTopKDecay[int](8, time.Minute) // long half-life: ~no decay
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tk.Record(i % 4)
				if i%50 == 0 {
					tk.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, it := range tk.Snapshot() {
		total += it.Count
	}
	// Half-life is a minute and the test runs in milliseconds, so decay
	// rounds away at most a tiny fraction.
	if total < 15800 || total > 16000 {
		t.Fatalf("total after concurrent decaying records = %d, want ~16000", total)
	}
}

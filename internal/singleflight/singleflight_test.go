package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoSerial(t *testing.T) {
	var g Group[string, int]
	for i := 0; i < 3; i++ {
		v, err, shared := g.Do("k", func() (int, error) { return 42, nil })
		if v != 42 || err != nil || shared {
			t.Fatalf("Do = (%d, %v, %v), want (42, nil, false)", v, err, shared)
		}
	}
	if f, c := g.Flights(), g.Coalesced(); f != 3 || c != 0 {
		t.Fatalf("flights=%d coalesced=%d, want 3, 0 (serial calls never coalesce)", f, c)
	}
}

// A warm group recycles its call records: a flight allocates nothing.
func TestDoAllocs(t *testing.T) {
	var g Group[string, int]
	fn := func() (int, error) { return 42, nil }
	g.Do("k", fn)
	if n := testing.AllocsPerRun(100, func() { g.Do("k", fn) }); n != 0 {
		t.Fatalf("a warm flight allocates %.0f times", n)
	}
}

func TestDoError(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestDoCoalesces(t *testing.T) {
	var g Group[string, int]
	const joiners = 8
	gate := make(chan struct{})
	entered := make(chan struct{})
	var execs atomic.Int64

	var wg sync.WaitGroup
	leaderFn := func() (int, error) {
		close(entered)
		<-gate
		execs.Add(1)
		return 7, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, err, _ := g.Do("k", leaderFn); v != 7 || err != nil {
			t.Errorf("leader: got (%d, %v)", v, err)
		}
	}()
	<-entered // leader is inside fn; joiners must coalesce
	sharedCount := atomic.Int64{}
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do("k", func() (int, error) {
				execs.Add(1)
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("joiner: got (%d, %v)", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if execs.Load() > int64(joiners)+1 {
		t.Fatalf("execs = %d, want far fewer than every caller", execs.Load())
	}
	if g.Coalesced() != sharedCount.Load() {
		t.Fatalf("Coalesced() = %d, shared results seen = %d", g.Coalesced(), sharedCount.Load())
	}
}

func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	type key struct {
		path  string
		epoch uint64
	}
	var g Group[key, string]
	v1, _, _ := g.Do(key{"/a", 1}, func() (string, error) { return "e1", nil })
	v2, _, _ := g.Do(key{"/a", 2}, func() (string, error) { return "e2", nil })
	if v1 != "e1" || v2 != "e2" {
		t.Fatalf("epoch-distinct keys shared a flight: %q, %q", v1, v2)
	}
	if g.Flights() != 2 {
		t.Fatalf("flights = %d, want 2", g.Flights())
	}
}

func TestPanicReleasesJoiners(t *testing.T) {
	var g Group[string, int]
	func() {
		defer func() { _ = recover() }()
		g.Do("k", func() (int, error) { panic("kaboom") })
	}()
	// The key must be forgotten: a fresh call runs its own fn.
	v, err, shared := g.Do("k", func() (int, error) { return 1, nil })
	if v != 1 || err != nil || shared {
		t.Fatalf("post-panic Do = (%d, %v, %v), want fresh (1, nil, false)", v, err, shared)
	}
}

func TestConcurrentStress(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := i % 5
				v, err, _ := g.Do(k, func() (int, error) { return k * 10, nil })
				if err != nil || v != k*10 {
					t.Errorf("Do(%d) = (%d, %v)", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

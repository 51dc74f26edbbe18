package skiplist

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	l := New()
	if !l.IsEmpty() || l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	if !l.Insert("/a/b") {
		t.Fatal("first insert failed")
	}
	if l.Insert("/a/b") {
		t.Fatal("duplicate insert succeeded")
	}
	if !l.Contains("/a/b") {
		t.Fatal("Contains after insert = false")
	}
	if l.Contains("/a/c") {
		t.Fatal("Contains of absent key = true")
	}
	if l.Len() != 1 || l.IsEmpty() {
		t.Fatalf("Len = %d", l.Len())
	}
	if !l.Remove("/a/b") {
		t.Fatal("Remove failed")
	}
	if l.Remove("/a/b") {
		t.Fatal("double Remove succeeded")
	}
	if !l.IsEmpty() {
		t.Fatal("not empty after remove")
	}
}

func TestOrderedRange(t *testing.T) {
	l := New()
	keys := []string{"/m", "/a", "/z", "/b/c", "/b"}
	for _, k := range keys {
		l.Insert(k)
	}
	got := l.Keys()
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("Keys = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	l := New()
	for i := 0; i < 20; i++ {
		l.Insert(fmt.Sprintf("/k%02d", i))
	}
	n := 0
	l.Range(func(string) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("visited %d", n)
	}
}

func TestAgainstMapModelSequential(t *testing.T) {
	l := New()
	model := map[string]bool{}
	r := rand.New(rand.NewSource(3))
	for step := 0; step < 30000; step++ {
		k := fmt.Sprintf("/p/%d", r.Intn(200))
		switch r.Intn(3) {
		case 0:
			if ins := l.Insert(k); ins == model[k] {
				t.Fatalf("step %d: Insert(%s)=%v model has=%v", step, k, ins, model[k])
			}
			model[k] = true
		case 1:
			if del := l.Remove(k); del != model[k] {
				t.Fatalf("step %d: Remove(%s)=%v model=%v", step, k, del, model[k])
			}
			delete(model, k)
		case 2:
			if has := l.Contains(k); has != model[k] {
				t.Fatalf("step %d: Contains(%s)=%v model=%v", step, k, has, model[k])
			}
		}
		if l.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, l.Len(), len(model))
		}
	}
}

func TestConcurrentInsertRemove(t *testing.T) {
	l := New()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	// Each goroutine owns a disjoint key space: inserts then removes all.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("/g%d/%d", g, i)
				if !l.Insert(k) {
					t.Errorf("insert %s failed", k)
					return
				}
			}
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("/g%d/%d", g, i)
				if !l.Contains(k) {
					t.Errorf("contains %s false", k)
					return
				}
			}
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("/g%d/%d", g, i)
				if !l.Remove(k) {
					t.Errorf("remove %s failed", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !l.IsEmpty() {
		t.Fatalf("Len=%d after all removes, keys=%v", l.Len(), l.Keys())
	}
}

func TestConcurrentContendedSameKeys(t *testing.T) {
	// All goroutines fight over the same small key set; invariant: net
	// insert/remove accounting matches the final contents.
	l := New()
	const goroutines = 8
	var inserts, removes [goroutines]int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				k := fmt.Sprintf("/shared/%d", r.Intn(16))
				if r.Intn(2) == 0 {
					if l.Insert(k) {
						inserts[g]++
					}
				} else {
					if l.Remove(k) {
						removes[g]++
					}
				}
			}
		}(g)
	}
	wg.Wait()
	totalIns, totalRem := 0, 0
	for g := 0; g < goroutines; g++ {
		totalIns += inserts[g]
		totalRem += removes[g]
	}
	if got := totalIns - totalRem; got != l.Len() {
		t.Fatalf("net inserts %d != Len %d", got, l.Len())
	}
	// Every remaining key must be unique and present.
	keys := l.Keys()
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %s in list", k)
		}
		seen[k] = true
		if !l.Contains(k) {
			t.Fatalf("listed key %s not Contains", k)
		}
	}
}

func TestQuickSetSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		l := New()
		model := map[string]bool{}
		for _, op := range ops {
			k := fmt.Sprintf("/%d", op%64)
			if op&0x8000 != 0 {
				if l.Insert(k) == model[k] {
					return false
				}
				model[k] = true
			} else {
				if l.Remove(k) != model[k] {
					return false
				}
				delete(model, k)
			}
		}
		return l.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int, int] {
	return NewWithDegree[int, int](3, func(a, b int) bool { return a < b })
}

func TestPutGetDelete(t *testing.T) {
	tr := intTree()
	if _, ok := tr.Get(1); ok {
		t.Fatal("empty tree returned a value")
	}
	for i := 0; i < 100; i++ {
		if !tr.Put(i, i*10) {
			t.Fatalf("Put(%d) reported replace on fresh key", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := tr.Get(i)
		if !ok || v != i*10 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if tr.Put(50, 999) {
		t.Fatal("Put on existing key reported insert")
	}
	if v, _ := tr.Get(50); v != 999 {
		t.Fatalf("replaced value = %d", v)
	}
	for i := 0; i < 100; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		_, ok := tr.Get(i)
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) present=%v after deleting evens", i, ok)
		}
	}
	if tr.Delete(0) {
		t.Fatal("double delete succeeded")
	}
}

func TestAscendOrder(t *testing.T) {
	tr := intTree()
	perm := rand.New(rand.NewSource(7)).Perm(500)
	for _, k := range perm {
		tr.Put(k, k)
	}
	var got []int
	tr.Ascend(func(k, v int) bool { got = append(got, k); return true })
	if len(got) != 500 {
		t.Fatalf("Ascend visited %d", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("Ascend not in order")
	}
}

func TestAscendRange(t *testing.T) {
	tr := intTree()
	for i := 0; i < 100; i++ {
		tr.Put(i, i)
	}
	var got []int
	tr.AscendRange(10, 20, func(k, v int) bool { got = append(got, k); return true })
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("AscendRange(10,20) = %v", got)
	}
	got = nil
	tr.AscendRange(95, 200, func(k, v int) bool { got = append(got, k); return true })
	if len(got) != 5 {
		t.Fatalf("AscendRange over end = %v", got)
	}
	got = nil
	tr.AscendRange(5, 5, func(k, v int) bool { got = append(got, k); return true })
	if len(got) != 0 {
		t.Fatalf("empty range = %v", got)
	}
	// Early stop.
	count := 0
	tr.AscendRange(0, 100, func(k, v int) bool { count++; return count < 7 })
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestAgainstMapModel drives random ops against a map reference model.
func TestAgainstMapModel(t *testing.T) {
	tr := intTree()
	model := map[int]int{}
	r := rand.New(rand.NewSource(99))
	for step := 0; step < 20000; step++ {
		k := r.Intn(300)
		switch r.Intn(3) {
		case 0:
			v := r.Intn(1000)
			_, existed := model[k]
			ins := tr.Put(k, v)
			if ins == existed {
				t.Fatalf("step %d: Put(%d) insert=%v but existed=%v", step, k, ins, existed)
			}
			model[k] = v
		case 1:
			_, existed := model[k]
			if del := tr.Delete(k); del != existed {
				t.Fatalf("step %d: Delete(%d)=%v existed=%v", step, k, del, existed)
			}
			delete(model, k)
		case 2:
			mv, existed := model[k]
			v, ok := tr.Get(k)
			if ok != existed || (ok && v != mv) {
				t.Fatalf("step %d: Get(%d)=%d,%v model=%d,%v", step, k, v, ok, mv, existed)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, tr.Len(), len(model))
		}
	}
	// Final: full in-order scan matches sorted model keys.
	keys := make([]int, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	i := 0
	tr.Ascend(func(k, v int) bool {
		if i >= len(keys) || k != keys[i] || v != model[k] {
			t.Fatalf("scan mismatch at %d: got %d", i, k)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("scan visited %d of %d", i, len(keys))
	}
}

func TestQuickInsertedMeansGettable(t *testing.T) {
	f := func(keys []int16) bool {
		tr := intTree()
		for _, k := range keys {
			tr.Put(int(k), int(k)+1)
		}
		for _, k := range keys {
			v, ok := tr.Get(int(k))
			if !ok || v != int(k)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New[string, int](func(a, b string) bool { return a < b })
	words := []string{"pear", "apple", "fig", "banana", "date", "cherry"}
	for i, w := range words {
		tr.Put(w, i)
	}
	var got []string
	tr.Ascend(func(k string, v int) bool { got = append(got, k); return true })
	if !sort.StringsAreSorted(got) || len(got) != len(words) {
		t.Fatalf("string scan = %v", got)
	}
}

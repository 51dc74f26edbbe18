package types

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestPermIntersectAllows(t *testing.T) {
	if !PermAll.Allows(PermLookup | PermWrite) {
		t.Fatal("PermAll denies")
	}
	p := PermAll.Intersect(PermLookup | PermRead)
	if p.Allows(PermWrite) {
		t.Fatal("intersection kept write")
	}
	if !p.Allows(PermLookup) || !p.Allows(PermRead) {
		t.Fatal("intersection dropped kept bits")
	}
	var zero Perm
	if zero.Allows(PermLookup) {
		t.Fatal("zero perm allows lookup")
	}
	if !zero.Allows(0) {
		t.Fatal("zero need should always pass")
	}
}

func TestPermIntersectionIsMonotonic(t *testing.T) {
	f := func(a, b, need uint16) bool {
		pa, pb, n := Perm(a), Perm(b), Perm(need)
		inter := pa.Intersect(pb)
		// The intersection never allows something either side denies.
		if inter.Allows(n) && (!pa.Allows(n) || !pb.Allows(n)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrdering(t *testing.T) {
	keys := []Key{
		{Pid: 2, Name: "a"},
		{Pid: 1, Name: "z"},
		{Pid: 1, Name: "a"},
		{Pid: 3, Name: ""},
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	want := []Key{{1, "a"}, {1, "z"}, {2, "a"}, {3, ""}}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
	// Less is a strict weak order: irreflexive, asymmetric.
	f := func(p1, p2 uint32, n1, n2 string) bool {
		a := Key{Pid: InodeID(p1), Name: n1}
		b := Key{Pid: InodeID(p2), Name: n2}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseTimings(t *testing.T) {
	var pt PhaseTimings
	pt = pt.Add(PhaseLookup, 10*time.Microsecond)
	pt = pt.Add(PhaseLookup, 5*time.Microsecond)
	pt = pt.Add(PhaseExecute, 20*time.Microsecond)
	if pt[PhaseLookup] != 15*time.Microsecond {
		t.Fatalf("lookup = %v", pt[PhaseLookup])
	}
	if pt.Total() != 35*time.Microsecond {
		t.Fatalf("total = %v", pt.Total())
	}
}

func TestStringers(t *testing.T) {
	if KindDir.String() != "dir" || KindObject.String() != "object" {
		t.Fatal("kind strings")
	}
	wantPhases := map[Phase]string{
		PhaseLookup: "lookup", PhaseLoopDetect: "loopdetect", PhaseExecute: "execute",
	}
	for ph, want := range wantPhases {
		if ph.String() != want {
			t.Fatalf("phase %d = %q", ph, ph.String())
		}
	}
	if k := (Key{Pid: 7, Name: "x"}); k.String() != "7/x" {
		t.Fatal("key string")
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{
		ErrNotFound, ErrExists, ErrNotDir, ErrIsDir, ErrNotEmpty,
		ErrPermission, ErrConflict, ErrLocked, ErrLoop,
		ErrRetryExhausted, ErrNotLeader, ErrStopped,
	}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Fatalf("error %d matches %d", i, j)
			}
		}
		// Wrapping preserves identity.
		wrapped := fmt.Errorf("context: %w", a)
		if !errors.Is(wrapped, a) {
			t.Fatalf("wrap broke errors.Is for %v", a)
		}
	}
}

func TestEntryIsDir(t *testing.T) {
	d := Entry{Kind: KindDir}
	o := Entry{Kind: KindObject}
	if !d.IsDir() || o.IsDir() {
		t.Fatal("IsDir")
	}
}

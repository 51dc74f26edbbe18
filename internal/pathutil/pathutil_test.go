package pathutil

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestClean(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "/"},
		{"/", "/"},
		{"//", "/"},
		{"a", "/a"},
		{"/a", "/a"},
		{"/a/", "/a"},
		{"//a//b///c", "/a/b/c"},
		{"/a/./b", "/a/b"},
		{".", "/"},
		{"/a/b/c/", "/a/b/c"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCleanIdempotent(t *testing.T) {
	f := func(p string) bool {
		once := Clean(p)
		return Clean(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	gen := func(r *rand.Rand) string {
		n := r.Intn(6)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = string(rune('a' + r.Intn(26)))
		}
		return "/" + strings.Join(parts, "/")
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := Clean(gen(r))
		if got := Join(Split(p)...); got != p {
			t.Fatalf("Join(Split(%q)) = %q", p, got)
		}
	}
}

func TestDepth(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"/", 0}, {"/a", 1}, {"/a/b", 2}, {"a/b/c", 3}, {"//x//y", 2},
	}
	for _, c := range cases {
		if got := Depth(c.in); got != c.want {
			t.Errorf("Depth(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBaseDir(t *testing.T) {
	cases := []struct{ in, base, dir string }{
		{"/", "", "/"},
		{"/a", "a", "/"},
		{"/a/b", "b", "/a"},
		{"/a/b/c", "c", "/a/b"},
	}
	for _, c := range cases {
		if got := Base(c.in); got != c.base {
			t.Errorf("Base(%q) = %q, want %q", c.in, got, c.base)
		}
		if got := Dir(c.in); got != c.dir {
			t.Errorf("Dir(%q) = %q, want %q", c.in, got, c.dir)
		}
	}
}

// dirBaseBySplit is the component-wise reference for DirBase: the parent
// joined from all but the last component, and the last component.
func dirBaseBySplit(p string) (string, string) {
	comps := Split(p)
	if len(comps) == 0 {
		return "/", ""
	}
	return Join(comps[:len(comps)-1]...), comps[len(comps)-1]
}

func TestDirBase(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"", "/", ""},
		{"/", "/", ""},
		{"//", "/", ""},
		{".", "/", ""},
		{"/a", "/", "a"},
		{"a", "/", "a"},
		{"/a/", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
		{"//a//b///c/", "/a/b", "c"},
		{"/a/./b", "/a", "b"},
		{"/a/b/.", "/a", "b"},
		{"/a/..", "/a", ".."},
	}
	for _, c := range cases {
		dir, base := DirBase(c.in)
		if dir != c.dir || base != c.base {
			t.Errorf("DirBase(%q) = (%q, %q), want (%q, %q)", c.in, dir, base, c.dir, c.base)
		}
		if dir != Dir(c.in) || base != Base(c.in) {
			t.Errorf("DirBase(%q) = (%q, %q), Dir/Base = (%q, %q)", c.in, dir, base, Dir(c.in), Base(c.in))
		}
		if d, b := dirBaseBySplit(c.in); dir != d || base != b {
			t.Errorf("DirBase(%q) = (%q, %q), by components (%q, %q)", c.in, dir, base, d, b)
		}
	}
}

func TestTruncatePrefix(t *testing.T) {
	cases := []struct {
		in     string
		k      int
		prefix string
		suffix []string
	}{
		{"/A/C/E/G/H", 3, "/A/C", []string{"E", "G", "H"}}, // the paper's example
		{"/a/b", 3, "/", []string{"a", "b"}},
		{"/a/b", 2, "/", []string{"a", "b"}},
		{"/a/b/c", 1, "/a/b", []string{"c"}},
		{"/a/b/c", 0, "/a/b/c", nil},
		{"/", 2, "/", nil},
		{"/a", -1, "/a", nil},
	}
	for _, c := range cases {
		prefix, suffix := TruncatePrefix(c.in, c.k)
		if prefix != c.prefix {
			t.Errorf("TruncatePrefix(%q,%d) prefix = %q, want %q", c.in, c.k, prefix, c.prefix)
		}
		if len(suffix) != len(c.suffix) {
			t.Errorf("TruncatePrefix(%q,%d) suffix = %v, want %v", c.in, c.k, suffix, c.suffix)
			continue
		}
		for i := range suffix {
			if suffix[i] != c.suffix[i] {
				t.Errorf("TruncatePrefix(%q,%d) suffix = %v, want %v", c.in, c.k, suffix, c.suffix)
			}
		}
	}
}

func TestTruncatePrefixReassembles(t *testing.T) {
	f := func(rawComps []uint8, k uint8) bool {
		comps := make([]string, 0, len(rawComps)%8)
		for _, b := range rawComps {
			comps = append(comps, string(rune('a'+int(b)%26)))
			if len(comps) == 8 {
				break
			}
		}
		p := Join(comps...)
		prefix, suffix := TruncatePrefix(p, int(k%6))
		return Join(append(Split(prefix), suffix...)...) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsAncestor(t *testing.T) {
	cases := []struct {
		a, p       string
		allowEqual bool
		want       bool
	}{
		{"/", "/a", false, true},
		{"/a", "/a/b", false, true},
		{"/a", "/ab", false, false},
		{"/a/b", "/a", false, false},
		{"/a", "/a", false, false},
		{"/a", "/a", true, true},
		{"/", "/", true, true},
		{"/", "/", false, false},
		{"/a/b", "/a/b/c/d", false, true},
	}
	for _, c := range cases {
		if got := IsAncestor(c.a, c.p, c.allowEqual); got != c.want {
			t.Errorf("IsAncestor(%q,%q,%v) = %v, want %v", c.a, c.p, c.allowEqual, got, c.want)
		}
	}
}

func TestLCA(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"/a/b/c", "/a/b/d", "/a/b"},
		{"/a/b", "/x/y", "/"},
		{"/a/b", "/a/b", "/a/b"},
		{"/a/b/c", "/a", "/a"},
		{"/", "/a", "/"},
	}
	for _, c := range cases {
		if got := LCA(c.a, c.b); got != c.want {
			t.Errorf("LCA(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

func TestLCAIsAncestorOfBoth(t *testing.T) {
	f := func(sa, sb []uint8) bool {
		mk := func(bs []uint8) string {
			comps := make([]string, 0, len(bs)%6)
			for _, b := range bs {
				comps = append(comps, string(rune('a'+int(b)%3)))
				if len(comps) == 6 {
					break
				}
			}
			return Join(comps...)
		}
		a, b := mk(sa), mk(sb)
		l := LCA(a, b)
		return IsAncestor(l, a, true) && IsAncestor(l, b, true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func FuzzClean(f *testing.F) {
	for _, seed := range []string{"", "/", "//", "/a/b/c", "a//b/", "/./a/./", "a/..", "日本/語"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p string) {
		c := Clean(p)
		// Canonical form invariants.
		if c == "" || c[0] != '/' {
			t.Fatalf("Clean(%q) = %q: no leading slash", p, c)
		}
		if len(c) > 1 && c[len(c)-1] == '/' {
			t.Fatalf("Clean(%q) = %q: trailing slash", p, c)
		}
		if strings.Contains(c, "//") {
			t.Fatalf("Clean(%q) = %q: duplicate slash", p, c)
		}
		// Idempotence and reassembly.
		if Clean(c) != c {
			t.Fatalf("Clean not idempotent on %q -> %q", p, c)
		}
		if got := Join(Split(c)...); got != c {
			t.Fatalf("Join(Split(%q)) = %q", c, got)
		}
		// Depth agrees with Split.
		if Depth(c) != len(Split(c)) {
			t.Fatalf("Depth(%q)=%d Split len=%d", c, Depth(c), len(Split(c)))
		}
		// The one-pass parent-and-name split agrees with Dir, Base and the
		// components, on the raw input and on its canonical form.
		for _, q := range []string{p, c} {
			dir, base := DirBase(q)
			if dir != Dir(q) || base != Base(q) {
				t.Fatalf("DirBase(%q) = (%q, %q), Dir/Base = (%q, %q)", q, dir, base, Dir(q), Base(q))
			}
			if d, b := dirBaseBySplit(q); dir != d || base != b {
				t.Fatalf("DirBase(%q) = (%q, %q), by components (%q, %q)", q, dir, base, d, b)
			}
		}
	})
}

func TestRelAndNextComponent(t *testing.T) {
	cases := []struct {
		p    string
		want []string
	}{
		{"/", nil},
		{"/a", []string{"a"}},
		{"/a/b/c", []string{"a", "b", "c"}},
		{"//a//b/", []string{"a", "b"}},
	}
	for _, c := range cases {
		var got []string
		rest := Rel(c.p)
		for rest != "" {
			var name string
			name, rest = NextComponent(rest)
			got = append(got, name)
		}
		if len(got) != len(c.want) {
			t.Fatalf("Rel/NextComponent(%q) = %v, want %v", c.p, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Rel/NextComponent(%q) = %v, want %v", c.p, got, c.want)
			}
		}
	}
}

func TestTruncateRelMatchesTruncatePrefix(t *testing.T) {
	for _, p := range []string{"/", "/a", "/a/b", "/a/b/c/d/e/f"} {
		for k := 0; k <= 7; k++ {
			wantPrefix, wantSuffix := TruncatePrefix(p, k)
			gotPrefix, gotSuffix := TruncateRel(p, k)
			if gotPrefix != wantPrefix {
				t.Fatalf("TruncateRel(%q,%d) prefix = %q, want %q", p, k, gotPrefix, wantPrefix)
			}
			var comps []string
			rest := gotSuffix
			for rest != "" {
				var name string
				name, rest = NextComponent(rest)
				comps = append(comps, name)
			}
			if len(comps) != len(wantSuffix) {
				t.Fatalf("TruncateRel(%q,%d) suffix = %v, want %v", p, k, comps, wantSuffix)
			}
			for i := range comps {
				if comps[i] != wantSuffix[i] {
					t.Fatalf("TruncateRel(%q,%d) suffix = %v, want %v", p, k, comps, wantSuffix)
				}
			}
		}
	}
}

func TestComponentIterationZeroAlloc(t *testing.T) {
	p := "/a/b/c/d/e/f/g/h"
	allocs := testing.AllocsPerRun(100, func() {
		n := 0
		for rest := Rel(p); rest != ""; n++ {
			_, rest = NextComponent(rest)
		}
		if n != 8 {
			t.Fatal("bad count")
		}
		_, _ = TruncateRel(p, 3)
	})
	if allocs != 0 {
		t.Fatalf("component iteration allocated %v allocs/op, want 0", allocs)
	}
}

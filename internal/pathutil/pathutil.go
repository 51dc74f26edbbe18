// Package pathutil implements the object-path algebra used throughout the
// Mantle reproduction: normalisation, component splitting, depth
// computation, prefix truncation for the TopDirPathCache's k-truncation
// rule, ancestry tests for rename loop detection, and least-common-ancestor
// computation for the rename lock-check walk.
//
// Paths are slash-separated, always absolute, and never end in a slash
// (except the root itself, "/").
package pathutil

import (
	"strings"

	"mantle/internal/intern"
)

// Intern returns a retention-safe form of a path or component string.
// Nearly every string this package hands out — Base, Rel, TruncateRel
// prefixes, Split components — is a substring of a caller's path, so
// storing one in a long-lived map or struct pins the whole original
// allocation. Short strings (up to intern.MaxLen) are deduplicated
// through the process-wide intern table, which copies on first sight;
// longer ones are cloned. Either way the result is safe to retain
// indefinitely.
func Intern(s string) string {
	if len(s) <= intern.MaxLen {
		return intern.Intern(s)
	}
	return strings.Clone(s)
}

// Clean normalises p to canonical form: leading slash, no duplicate or
// trailing slashes, no "." components. It does not resolve "..", which is
// not part of the COSS API surface; ".." is treated as a literal name.
//
// Already-canonical paths are returned unchanged without allocating —
// the hot paths (every lookup, every RemovalList scan) re-clean paths
// that are almost always canonical already.
func Clean(p string) string {
	if isCanonical(p) {
		return p
	}
	return slowClean(p)
}

// isCanonical reports whether p is already in canonical form.
func isCanonical(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	if p == "/" {
		return true
	}
	if p[len(p)-1] == '/' {
		return false
	}
	for i := 1; i < len(p); i++ {
		if p[i] == '/' && p[i-1] == '/' {
			return false
		}
		// A "." component: preceded by '/' and followed by '/' or end.
		if p[i] == '.' && p[i-1] == '/' && (i == len(p)-1 || p[i+1] == '/') {
			return false
		}
	}
	return true
}

func slowClean(p string) string {
	if p == "" {
		return "/"
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, c := range parts {
		if c == "" || c == "." {
			continue
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return "/"
	}
	return "/" + strings.Join(out, "/")
}

// Split returns the cleaned path's components. The root yields an empty
// slice.
func Split(p string) []string {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// Rel returns the cleaned path's components as one relative string
// ("/a/b/c" → "a/b/c", "/" → ""), the zero-allocation counterpart of
// Split for use with NextComponent.
func Rel(p string) string {
	p = Clean(p)
	if p == "/" {
		return ""
	}
	return p[1:]
}

// NextComponent splits a relative component string (as produced by Rel
// or TruncateRel) into its first component and the remainder, without
// allocating: "a/b/c" → ("a", "b/c"); "c" → ("c", ""). The empty string
// yields ("", "").
func NextComponent(rest string) (name, remainder string) {
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i], rest[i+1:]
	}
	return rest, ""
}

// Join builds a cleaned path from components.
func Join(components ...string) string {
	return Clean(strings.Join(components, "/"))
}

// Depth returns the number of components in the cleaned path. The root
// has depth 0; "/a/b" has depth 2.
func Depth(p string) int {
	p = Clean(p)
	if p == "/" {
		return 0
	}
	return strings.Count(p, "/")
}

// Base returns the final component of the cleaned path, or "" for root.
func Base(p string) string {
	_, base := DirBase(p)
	return base
}

// Dir returns the parent of the cleaned path. The parent of root is root.
func Dir(p string) string {
	dir, _ := DirBase(p)
	return dir
}

// DirBase returns (Dir(p), Base(p)) from one cleaning of p: an op that
// needs both the parent and the name pays for one pass over the path.
func DirBase(p string) (dir, base string) {
	p = Clean(p)
	if p == "/" {
		return "/", ""
	}
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// TruncatePrefix implements the TopDirPathCache k-truncation rule (§5.1.1):
// given a path of depth N and the empirical constant k, it returns the
// prefix obtained by removing the final k components, along with the
// remaining suffix components that must still be resolved level by level.
// If the path has k or fewer components the prefix is the root and every
// component remains in the suffix — such paths are never cached.
func TruncatePrefix(p string, k int) (prefix string, suffix []string) {
	p = Clean(p)
	if k < 0 {
		k = 0
	}
	n := Depth(p)
	cut := n - k
	if cut <= 0 {
		return "/", Split(p)
	}
	if cut == n {
		return p, nil
	}
	// The prefix of the first cut components ends just before the
	// (cut+1)-th slash; index arithmetic on the canonical string avoids
	// the split/join allocations on the lookup hot path.
	seen := 0
	for i := 1; i < len(p); i++ {
		if p[i] == '/' {
			seen++
			if seen == cut {
				return p[:i], strings.Split(p[i+1:], "/")
			}
		}
	}
	return p, nil // unreachable for canonical paths
}

// TruncateRel is TruncatePrefix returning the suffix as one relative
// component string instead of a slice ("a/b" rather than ["a","b"]), so
// the lookup hot path can iterate it with NextComponent without
// allocating. The empty suffix means the whole path is the prefix.
func TruncateRel(p string, k int) (prefix, suffix string) {
	p = Clean(p)
	if k < 0 {
		k = 0
	}
	n := 0 // the components of p, counted without cleaning it again
	if p != "/" {
		n = strings.Count(p, "/")
	}
	cut := n - k
	if cut <= 0 {
		return "/", p[1:]
	}
	if cut == n {
		return p, ""
	}
	seen := 0
	for i := 1; i < len(p); i++ {
		if p[i] == '/' {
			seen++
			if seen == cut {
				return p[:i], p[i+1:]
			}
		}
	}
	return p, "" // unreachable for canonical paths
}

// IsAncestor reports whether ancestor is a strict ancestor of p (or equal
// when allowEqual is set), comparing cleaned paths component-wise.
func IsAncestor(ancestor, p string, allowEqual bool) bool {
	a, b := Clean(ancestor), Clean(p)
	if a == b {
		return allowEqual
	}
	if a == "/" {
		return true
	}
	return strings.HasPrefix(b, a) && len(b) > len(a) && b[len(a)] == '/'
}

// LCA returns the least common ancestor of two cleaned paths: a prefix of
// the cleaned a, found by iterating both paths' components in place.
func LCA(a, b string) string {
	a = Clean(a)
	ra, rb := Rel(a), Rel(b)
	end := 0 // bytes of ra the common components span
	for rest := ra; rest != "" && rb != ""; {
		ca, nextA := NextComponent(rest)
		cb, nextB := NextComponent(rb)
		if ca != cb {
			break
		}
		end = len(ra) - len(rest) + len(ca)
		rest, rb = nextA, nextB
	}
	if end == 0 {
		return "/"
	}
	return a[:1+end]
}

// Package radix is the prefix-invalidated path cache (§5.1.1–5.1.2 of the
// paper): Cache, in cache.go, and the path-component prefix tree it keeps
// as its private index. A hash table cannot answer "which cached paths lie
// under directory D?"; the Tree mirrors every cached path so that a
// directory modification can find the affected range with one subtree
// walk.
//
// The paper describes the structure as a lock-free radix tree. This
// implementation substitutes a component-trie under a mutex:
// it is touched only on cache fill and invalidation (never on the lookup
// fast path, which goes through the cache's hash table), so mutex
// contention is negligible; the behavioural contract — efficient range
// queries for invalidation — is identical. The substitution is recorded
// in DESIGN.md.
package radix

import (
	"sync"

	"mantle/internal/pathutil"
)

type node struct {
	children map[string]*node
	terminal bool // a cached path ends here
}

func newNode() *node { return &node{children: make(map[string]*node)} }

// Tree is a set of slash-separated paths supporting subtree queries.
// Safe for concurrent use.
type Tree struct {
	mu   sync.Mutex
	root *node
}

// New returns an empty tree.
func New() *Tree { return &Tree{root: newNode()} }

// Insert adds path to the set, reporting whether it was newly added.
func (t *Tree) Insert(path string) bool {
	comps := pathutil.Split(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for _, c := range comps {
		child, ok := n.children[c]
		if !ok {
			child = newNode()
			// Intern the edge label: c is a substring of path, and a
			// long-lived map key sliced from a request path would pin the
			// whole path allocation.
			n.children[pathutil.Intern(c)] = child
		}
		n = child
	}
	if n.terminal {
		return false
	}
	n.terminal = true
	return true
}

// Remove deletes an exact path from the set, pruning now-empty interior
// nodes. It reports whether the path was present.
func (t *Tree) Remove(path string) bool {
	comps := pathutil.Split(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.remove(t.root, comps)
}

func (t *Tree) remove(n *node, comps []string) bool {
	if len(comps) == 0 {
		if !n.terminal {
			return false
		}
		n.terminal = false
		return true
	}
	child, ok := n.children[comps[0]]
	if !ok {
		return false
	}
	removed := t.remove(child, comps[1:])
	if removed && !child.terminal && len(child.children) == 0 {
		delete(n.children, comps[0])
	}
	return removed
}

// RemoveSubtree deletes every inserted path that has dir as an ancestor or
// is equal to dir — the invalidation range for a modification of dir —
// and returns the removed paths.
func (t *Tree) RemoveSubtree(dir string) []string {
	dir = pathutil.Clean(dir)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.root
	n := t.root
	last := ""
	for rest := pathutil.Rel(dir); rest != ""; {
		var c string
		c, rest = pathutil.NextComponent(rest)
		child, ok := n.children[c]
		if !ok {
			return nil
		}
		parent, n, last = n, child, c
	}
	var out []string
	collect(n, dir, &out)
	if n == t.root {
		// Clearing the whole tree.
		t.root = newNode()
		return out
	}
	delete(parent.children, last)
	return out
}

func collect(n *node, prefix string, out *[]string) {
	if n.terminal {
		*out = append(*out, prefix)
	}
	for c, child := range n.children {
		p := prefix
		if p == "/" {
			p = "/" + c
		} else {
			p = p + "/" + c
		}
		collect(child, p, out)
	}
}

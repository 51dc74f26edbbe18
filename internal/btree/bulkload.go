package btree

// Bottom-up bulk loading. Sequential Put fills nodes to ~50% occupancy
// (every split leaves two half-full nodes that are never revisited by an
// ascending insert), so a freshly populated namespace wastes almost half
// of every slab. A Loader builds the tree bottom-up from a sorted stream
// instead, packing nodes to 2t-2 of their 2t-1 capacity (~97% for the
// default degree) — the difference between ~150 and ~80 resident bytes
// per entry at the 10M-entry sweep's scale — and runs in O(n) with no
// comparisons.

// Loader streams strictly-ascending entries into a tree being rebuilt
// bottom-up. Obtain one with Tree.NewLoader (which empties the tree),
// Add every entry in ascending key order, then call Done exactly once.
// The tree must not be read or mutated between NewLoader and Done.
//
// The builder maintains an open rightmost spine — one partially filled
// node per level — closing a node into its parent whenever it reaches
// the target fill; the entry that overflows a level becomes the parent's
// separator (this is a classic B-tree: interior keys are real entries).
type Loader[K, V any] struct {
	t    *Tree[K, V]
	fill int
	// open[l] is the node currently being filled at level l (leaves are
	// level 0); nil means the level's previous node was just closed and
	// the next arrival starts a fresh one.
	open  []*node[K, V]
	count int
	done  bool
}

// NewLoader empties the tree (discarding nodes, slabs, and freelists
// wholesale; degree and ordering are kept) and returns a Loader that
// rebuilds it from an ascending stream.
func (t *Tree[K, V]) NewLoader() *Loader[K, V] {
	*t = Tree[K, V]{degree: t.degree, less: t.less}
	return &Loader[K, V]{
		t:    t,
		fill: 2*t.degree - 2,
		open: []*node[K, V]{t.newNode(true)},
	}
}

// Add appends one entry. Keys must arrive in strictly ascending order.
func (l *Loader[K, V]) Add(k K, v V) {
	l.addKey(0, k, v)
	l.count++
}

func (l *Loader[K, V]) closeInto(level int, child *node[K, V]) {
	for level >= len(l.open) {
		l.open = append(l.open, nil)
	}
	if l.open[level] == nil {
		l.open[level] = l.t.newNode(false)
	}
	l.open[level].children = append(l.open[level].children, child)
}

func (l *Loader[K, V]) addKey(level int, k K, v V) {
	n := l.open[level]
	if len(n.keys) == l.fill {
		l.open[level] = nil
		l.closeInto(level+1, n)
		if level == 0 {
			l.open[0] = l.t.newNode(true)
		}
		l.addKey(level+1, k, v)
		return
	}
	n.keys = append(n.keys, k)
	n.values = append(n.values, v)
}

// Done closes the open spine and installs the finished tree. The stream
// tail can leave the last node of each level underfull, so a final
// top-down pass over the rightmost spine rotates entries in from the
// (always full) left siblings.
func (l *Loader[K, V]) Done() {
	if l.done {
		return
	}
	l.done = true
	t := l.t
	if l.count == 0 {
		// The pre-created empty leaf never held an entry; drop it.
		t.root, t.length = nil, 0
		t.freeNode(l.open[0])
		return
	}

	// Close the remaining open nodes bottom-up; the topmost becomes the
	// root. A nil slot between two open levels is bridged by closeInto
	// creating an intermediate (it ends underfull and is repaired below).
	top := len(l.open) - 1
	for lv := 0; lv < top; lv++ {
		if l.open[lv] != nil {
			l.closeInto(lv+1, l.open[lv])
			l.open[lv] = nil
		}
	}
	t.root = l.open[top]
	t.length = l.count

	// Repair the rightmost spine: every non-last node at each level was
	// closed exactly full, so rotating from the left sibling can always
	// bring an underfull tail node up to the t-1 minimum while leaving
	// the sibling >= t-1.
	for n := t.root; n.children != nil; {
		m := len(n.children)
		y := n.children[m-1]
		for len(y.keys) < t.degree-1 {
			t.rotateRight(n, m-1)
		}
		n = y
	}
}

// BulkLoad replaces the tree's contents with count entries, delivered in
// strictly ascending key order by next(0..count-1). A convenience
// wrapper around NewLoader/Add/Done.
func (t *Tree[K, V]) BulkLoad(count int, next func(i int) (K, V)) {
	l := t.NewLoader()
	for i := 0; i < count; i++ {
		l.Add(next(i))
	}
	l.Done()
}

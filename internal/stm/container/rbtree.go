// Package container provides transactional data structures built on the stm
// package: a red-black tree map, a hash map, a sorted linked list and a
// FIFO queue. They mirror the library of structures that STAMP's benchmarks
// use on top of RSTM, and all of their operations must run inside a
// transaction supplied by the caller.
package container

import (
	"rubic/internal/stm"
)

type color bool

const (
	red   color = true
	black color = false
)

// rbnode is one tree node. The key is immutable after insertion; all links
// and the color are transactional so concurrent transactions conflict
// exactly on the paths they touch.
//
// The five Vars live inside the node, links first: a descent reads one of
// left/right per node, and both start on the key's cache line, so a lookup
// step no longer chases a separately allocated Var per link.
type rbnode[V any] struct {
	key    int64
	left   stm.Var[*rbnode[V]]
	right  stm.Var[*rbnode[V]]
	parent stm.Var[*rbnode[V]]
	col    stm.Var[color]
	val    stm.Var[V]
}

// newRBNode returns a red leaf: nil links are the zero Vars already, and the
// node is private until Put links it, so plain Sets are safe.
func newRBNode[V any](key int64, val V) *rbnode[V] {
	n := &rbnode[V]{key: key}
	n.col.Set(red)
	n.val.Set(val)
	return n
}

// RBTree is a transactional ordered map from int64 keys to values of type V,
// implemented as a classic CLRS red-black tree. It matches the red-black
// tree used by the paper's microbenchmark and by Vacation's manager tables.
type RBTree[V any] struct {
	root stm.Var[*rbnode[V]]
	size stm.Var[int]
}

// NewRBTree returns an empty tree.
func NewRBTree[V any]() *RBTree[V] {
	return &RBTree[V]{}
}

// Len returns the number of keys in the tree.
func (t *RBTree[V]) Len(tx *stm.Tx) int { return t.size.Read(tx) }

// Get returns the value stored under key.
func (t *RBTree[V]) Get(tx *stm.Tx, key int64) (V, bool) {
	n := t.lookup(tx, key)
	if n == nil {
		var zero V
		return zero, false
	}
	return n.val.Read(tx), true
}

// Contains reports whether key is present.
func (t *RBTree[V]) Contains(tx *stm.Tx, key int64) bool {
	return t.lookup(tx, key) != nil
}

func (t *RBTree[V]) lookup(tx *stm.Tx, key int64) *rbnode[V] {
	n := t.root.Read(tx)
	for n != nil {
		switch {
		case key < n.key:
			n = n.left.Read(tx)
		case key > n.key:
			n = n.right.Read(tx)
		default:
			return n
		}
	}
	return nil
}

// Put inserts or updates key and reports whether a new key was inserted.
func (t *RBTree[V]) Put(tx *stm.Tx, key int64, val V) bool {
	var parent *rbnode[V]
	n := t.root.Read(tx)
	for n != nil {
		parent = n
		switch {
		case key < n.key:
			n = n.left.Read(tx)
		case key > n.key:
			n = n.right.Read(tx)
		default:
			n.val.Write(tx, val)
			return false
		}
	}
	z := newRBNode(key, val)
	z.parent.Write(tx, parent)
	switch {
	case parent == nil:
		t.root.Write(tx, z)
	case key < parent.key:
		parent.left.Write(tx, z)
	default:
		parent.right.Write(tx, z)
	}
	t.insertFixup(tx, z)
	t.size.Write(tx, t.size.Read(tx)+1)
	return true
}

func (t *RBTree[V]) insertFixup(tx *stm.Tx, z *rbnode[V]) {
	for {
		p := z.parent.Read(tx)
		if p == nil || p.col.Read(tx) == black {
			break
		}
		g := p.parent.Read(tx) // grandparent exists: p is red, so p != root
		if p == g.left.Read(tx) {
			u := g.right.Read(tx)
			if u != nil && u.col.Read(tx) == red {
				p.col.Write(tx, black)
				u.col.Write(tx, black)
				g.col.Write(tx, red)
				z = g
				continue
			}
			if z == p.right.Read(tx) {
				z = p
				t.rotateLeft(tx, z)
				p = z.parent.Read(tx)
				g = p.parent.Read(tx)
			}
			p.col.Write(tx, black)
			g.col.Write(tx, red)
			t.rotateRight(tx, g)
		} else {
			u := g.left.Read(tx)
			if u != nil && u.col.Read(tx) == red {
				p.col.Write(tx, black)
				u.col.Write(tx, black)
				g.col.Write(tx, red)
				z = g
				continue
			}
			if z == p.left.Read(tx) {
				z = p
				t.rotateRight(tx, z)
				p = z.parent.Read(tx)
				g = p.parent.Read(tx)
			}
			p.col.Write(tx, black)
			g.col.Write(tx, red)
			t.rotateLeft(tx, g)
		}
	}
	t.root.Read(tx).col.Write(tx, black)
}

func (t *RBTree[V]) rotateLeft(tx *stm.Tx, x *rbnode[V]) {
	y := x.right.Read(tx)
	yl := y.left.Read(tx)
	x.right.Write(tx, yl)
	if yl != nil {
		yl.parent.Write(tx, x)
	}
	xp := x.parent.Read(tx)
	y.parent.Write(tx, xp)
	switch {
	case xp == nil:
		t.root.Write(tx, y)
	case x == xp.left.Read(tx):
		xp.left.Write(tx, y)
	default:
		xp.right.Write(tx, y)
	}
	y.left.Write(tx, x)
	x.parent.Write(tx, y)
}

func (t *RBTree[V]) rotateRight(tx *stm.Tx, x *rbnode[V]) {
	y := x.left.Read(tx)
	yr := y.right.Read(tx)
	x.left.Write(tx, yr)
	if yr != nil {
		yr.parent.Write(tx, x)
	}
	xp := x.parent.Read(tx)
	y.parent.Write(tx, xp)
	switch {
	case xp == nil:
		t.root.Write(tx, y)
	case x == xp.right.Read(tx):
		xp.right.Write(tx, y)
	default:
		xp.left.Write(tx, y)
	}
	y.right.Write(tx, x)
	x.parent.Write(tx, y)
}

// Delete removes key and reports whether it was present.
func (t *RBTree[V]) Delete(tx *stm.Tx, key int64) bool {
	z := t.lookup(tx, key)
	if z == nil {
		return false
	}
	t.deleteNode(tx, z)
	t.size.Write(tx, t.size.Read(tx)-1)
	return true
}

// deleteNode is CLRS RB-DELETE with nil leaves; because we have no sentinel,
// the fixup tracks the parent of the (possibly nil) replacement explicitly.
func (t *RBTree[V]) deleteNode(tx *stm.Tx, z *rbnode[V]) {
	y := z
	yOrigColor := y.col.Read(tx)
	var x *rbnode[V]
	var xParent *rbnode[V]

	switch {
	case z.left.Read(tx) == nil:
		x = z.right.Read(tx)
		xParent = z.parent.Read(tx)
		t.transplant(tx, z, x)
	case z.right.Read(tx) == nil:
		x = z.left.Read(tx)
		xParent = z.parent.Read(tx)
		t.transplant(tx, z, x)
	default:
		y = t.minimum(tx, z.right.Read(tx))
		yOrigColor = y.col.Read(tx)
		x = y.right.Read(tx)
		if y.parent.Read(tx) == z {
			xParent = y
			if x != nil {
				x.parent.Write(tx, y)
			}
		} else {
			xParent = y.parent.Read(tx)
			t.transplant(tx, y, x)
			zr := z.right.Read(tx)
			y.right.Write(tx, zr)
			zr.parent.Write(tx, y)
		}
		t.transplant(tx, z, y)
		zl := z.left.Read(tx)
		y.left.Write(tx, zl)
		zl.parent.Write(tx, y)
		y.col.Write(tx, z.col.Read(tx))
	}
	if yOrigColor == black {
		t.deleteFixup(tx, x, xParent)
	}
}

// transplant replaces subtree rooted at u with subtree rooted at v.
func (t *RBTree[V]) transplant(tx *stm.Tx, u, v *rbnode[V]) {
	up := u.parent.Read(tx)
	switch {
	case up == nil:
		t.root.Write(tx, v)
	case u == up.left.Read(tx):
		up.left.Write(tx, v)
	default:
		up.right.Write(tx, v)
	}
	if v != nil {
		v.parent.Write(tx, up)
	}
}

func (t *RBTree[V]) minimum(tx *stm.Tx, n *rbnode[V]) *rbnode[V] {
	for {
		l := n.left.Read(tx)
		if l == nil {
			return n
		}
		n = l
	}
}

func isRed[V any](tx *stm.Tx, n *rbnode[V]) bool {
	return n != nil && n.col.Read(tx) == red
}

func (t *RBTree[V]) deleteFixup(tx *stm.Tx, x, xParent *rbnode[V]) {
	for x != t.root.Read(tx) && !isRed(tx, x) {
		if xParent == nil {
			break
		}
		if x == xParent.left.Read(tx) {
			w := xParent.right.Read(tx)
			if isRed(tx, w) {
				w.col.Write(tx, black)
				xParent.col.Write(tx, red)
				t.rotateLeft(tx, xParent)
				w = xParent.right.Read(tx)
			}
			if !isRed(tx, w.left.Read(tx)) && !isRed(tx, w.right.Read(tx)) {
				w.col.Write(tx, red)
				x = xParent
				xParent = x.parent.Read(tx)
			} else {
				if !isRed(tx, w.right.Read(tx)) {
					wl := w.left.Read(tx)
					if wl != nil {
						wl.col.Write(tx, black)
					}
					w.col.Write(tx, red)
					t.rotateRight(tx, w)
					w = xParent.right.Read(tx)
				}
				w.col.Write(tx, xParent.col.Read(tx))
				xParent.col.Write(tx, black)
				wr := w.right.Read(tx)
				if wr != nil {
					wr.col.Write(tx, black)
				}
				t.rotateLeft(tx, xParent)
				x = t.root.Read(tx)
				xParent = nil
			}
		} else {
			w := xParent.left.Read(tx)
			if isRed(tx, w) {
				w.col.Write(tx, black)
				xParent.col.Write(tx, red)
				t.rotateRight(tx, xParent)
				w = xParent.left.Read(tx)
			}
			if !isRed(tx, w.right.Read(tx)) && !isRed(tx, w.left.Read(tx)) {
				w.col.Write(tx, red)
				x = xParent
				xParent = x.parent.Read(tx)
			} else {
				if !isRed(tx, w.left.Read(tx)) {
					wr := w.right.Read(tx)
					if wr != nil {
						wr.col.Write(tx, black)
					}
					w.col.Write(tx, red)
					t.rotateLeft(tx, w)
					w = xParent.left.Read(tx)
				}
				w.col.Write(tx, xParent.col.Read(tx))
				xParent.col.Write(tx, black)
				wl := w.left.Read(tx)
				if wl != nil {
					wl.col.Write(tx, black)
				}
				t.rotateRight(tx, xParent)
				x = t.root.Read(tx)
				xParent = nil
			}
		}
	}
	if x != nil {
		x.col.Write(tx, black)
	}
}

// Range calls fn for each key/value in ascending key order until fn returns
// false. It must run inside a transaction like every other operation.
func (t *RBTree[V]) Range(tx *stm.Tx, fn func(key int64, val V) bool) {
	t.rangeFrom(tx, t.root.Read(tx), fn)
}

func (t *RBTree[V]) rangeFrom(tx *stm.Tx, n *rbnode[V], fn func(int64, V) bool) bool {
	if n == nil {
		return true
	}
	if !t.rangeFrom(tx, n.left.Read(tx), fn) {
		return false
	}
	if !fn(n.key, n.val.Read(tx)) {
		return false
	}
	return t.rangeFrom(tx, n.right.Read(tx), fn)
}

// Keys returns all keys in ascending order.
func (t *RBTree[V]) Keys(tx *stm.Tx) []int64 {
	out := make([]int64, 0, t.size.Read(tx))
	t.Range(tx, func(k int64, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CheckInvariants verifies the red-black properties inside tx and returns a
// descriptive violation or "" when the tree is valid. Intended for tests.
func (t *RBTree[V]) CheckInvariants(tx *stm.Tx) string {
	root := t.root.Read(tx)
	if root == nil {
		return ""
	}
	if root.col.Read(tx) == red {
		return "root is red"
	}
	_, msg := t.check(tx, root, nil)
	return msg
}

// check returns the black height of the subtree and a violation message.
func (t *RBTree[V]) check(tx *stm.Tx, n, parent *rbnode[V]) (int, string) {
	if n == nil {
		return 1, ""
	}
	if got := n.parent.Read(tx); got != parent {
		return 0, "broken parent link"
	}
	l, r := n.left.Read(tx), n.right.Read(tx)
	if l != nil && l.key >= n.key {
		return 0, "left key out of order"
	}
	if r != nil && r.key <= n.key {
		return 0, "right key out of order"
	}
	if n.col.Read(tx) == red && (isRed(tx, l) || isRed(tx, r)) {
		return 0, "red node with red child"
	}
	lh, msg := t.check(tx, l, n)
	if msg != "" {
		return 0, msg
	}
	rh, msg := t.check(tx, r, n)
	if msg != "" {
		return 0, msg
	}
	if lh != rh {
		return 0, "black height mismatch"
	}
	if n.col.Read(tx) == black {
		lh++
	}
	return lh, ""
}

// Min returns the smallest key and its value; ok is false for an empty tree.
func (t *RBTree[V]) Min(tx *stm.Tx) (key int64, val V, ok bool) {
	n := t.root.Read(tx)
	if n == nil {
		var zero V
		return 0, zero, false
	}
	n = t.minimum(tx, n)
	return n.key, n.val.Read(tx), true
}

// Max returns the largest key and its value; ok is false for an empty tree.
func (t *RBTree[V]) Max(tx *stm.Tx) (key int64, val V, ok bool) {
	n := t.root.Read(tx)
	if n == nil {
		var zero V
		return 0, zero, false
	}
	for {
		r := n.right.Read(tx)
		if r == nil {
			return n.key, n.val.Read(tx), true
		}
		n = r
	}
}

// Ceiling returns the smallest key >= from and its value; ok is false when
// no such key exists.
func (t *RBTree[V]) Ceiling(tx *stm.Tx, from int64) (key int64, val V, ok bool) {
	var best *rbnode[V]
	n := t.root.Read(tx)
	for n != nil {
		switch {
		case n.key == from:
			return n.key, n.val.Read(tx), true
		case n.key > from:
			best = n
			n = n.left.Read(tx)
		default:
			n = n.right.Read(tx)
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val.Read(tx), true
}

// Floor returns the largest key <= from and its value; ok is false when no
// such key exists.
func (t *RBTree[V]) Floor(tx *stm.Tx, from int64) (key int64, val V, ok bool) {
	var best *rbnode[V]
	n := t.root.Read(tx)
	for n != nil {
		switch {
		case n.key == from:
			return n.key, n.val.Read(tx), true
		case n.key < from:
			best = n
			n = n.right.Read(tx)
		default:
			n = n.left.Read(tx)
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val.Read(tx), true
}

// RangeBetween calls fn for each key in [lo, hi] in ascending order until
// fn returns false.
func (t *RBTree[V]) RangeBetween(tx *stm.Tx, lo, hi int64, fn func(key int64, val V) bool) {
	t.rangeBetween(tx, t.root.Read(tx), lo, hi, fn)
}

func (t *RBTree[V]) rangeBetween(tx *stm.Tx, n *rbnode[V], lo, hi int64, fn func(int64, V) bool) bool {
	if n == nil {
		return true
	}
	if n.key > lo {
		if !t.rangeBetween(tx, n.left.Read(tx), lo, hi, fn) {
			return false
		}
	}
	if n.key >= lo && n.key <= hi {
		if !fn(n.key, n.val.Read(tx)) {
			return false
		}
	}
	if n.key < hi {
		return t.rangeBetween(tx, n.right.Read(tx), lo, hi, fn)
	}
	return true
}

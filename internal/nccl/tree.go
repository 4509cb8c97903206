package nccl

import "fmt"

// Double binary trees are the algorithm NCCL added (in 2.4, shortly after
// the paper's study) to fix exactly the behaviour the paper measured: ring
// collectives pay 2(N-1) latency steps, which dominates small-message
// operations on 8 GPUs. A pair of complementary binary trees halves the
// buffer across trees and completes in O(log N) steps at full bandwidth.
//
// This file provides the tree construction and a functional all-reduce
// over real float32 buffers; the timed model in comm.go prices the
// algorithm via Selection.Algorithm.

// Tree is one rooted binary tree over ranks 0..N-1.
type Tree struct {
	Root     int
	Parent   []int   // Parent[root] == -1
	Children [][]int // up to two per rank
	Depth    int
}

// BuildTree constructs a balanced binary tree over n ranks by recursive
// midpoint (depth ceil(log2(n+1))).
func BuildTree(n int) (Tree, error) {
	if n <= 0 {
		return Tree{}, fmt.Errorf("nccl: tree needs ranks, got %d", n)
	}
	t := Tree{
		Parent:   make([]int, n),
		Children: make([][]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	var build func(lo, hi, parent, depth int) int
	build = func(lo, hi, parent, depth int) int {
		if lo > hi {
			return -1
		}
		mid := (lo + hi) / 2
		t.Parent[mid] = parent
		if parent >= 0 {
			t.Children[parent] = append(t.Children[parent], mid)
		}
		if depth > t.Depth {
			t.Depth = depth
		}
		build(lo, mid-1, mid, depth+1)
		build(mid+1, hi, mid, depth+1)
		return mid
	}
	t.Root = build(0, n-1, -1, 0)
	return t, nil
}

// Mirror returns the complementary tree: rank r takes the role of rank
// n-1-r. A rank that is a leaf in one tree is interior in the other for
// most layouts, which is what lets the pair sustain full bandwidth.
func (t Tree) Mirror() Tree {
	n := len(t.Parent)
	m := Tree{
		Root:     n - 1 - t.Root,
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Depth:    t.Depth,
	}
	for r := 0; r < n; r++ {
		src := n - 1 - r
		if p := t.Parent[src]; p < 0 {
			m.Parent[r] = -1
		} else {
			m.Parent[r] = n - 1 - p
		}
		for _, c := range t.Children[src] {
			m.Children[r] = append(m.Children[r], n-1-c)
		}
	}
	return m
}

// treeReduceHalf sums the [lo,hi) segment of all rank buffers onto the
// tree's root via a post-order walk, then broadcasts the result back down.
func treeReduceHalf(tr Tree, bufs [][]float32, lo, hi int) {
	// Reduce up: children accumulate into parents, leaves first.
	var up func(r int)
	up = func(r int) {
		for _, c := range tr.Children[r] {
			up(c)
			for i := lo; i < hi; i++ {
				bufs[r][i] += bufs[c][i]
			}
		}
	}
	up(tr.Root)
	// Broadcast down.
	var down func(r int)
	down = func(r int) {
		for _, c := range tr.Children[r] {
			copy(bufs[c][lo:hi], bufs[r][lo:hi])
			down(c)
		}
	}
	down(tr.Root)
}

// TreeAllReduce sums the rank buffers elementwise using a double binary
// tree: the first half of the buffer travels one tree, the second half its
// mirror. All buffers must have equal length.
func TreeAllReduce(bufs [][]float32) error {
	n := len(bufs)
	if n == 0 {
		return fmt.Errorf("nccl: no ranks")
	}
	elems := len(bufs[0])
	for r, b := range bufs {
		if len(b) != elems {
			return fmt.Errorf("nccl: rank %d has %d elements, rank 0 has %d", r, len(b), elems)
		}
	}
	if n == 1 {
		return nil
	}
	t1, err := BuildTree(n)
	if err != nil {
		return err
	}
	t2 := t1.Mirror()
	half := elems / 2
	treeReduceHalf(t1, bufs, 0, half)
	treeReduceHalf(t2, bufs, half, elems)
	return nil
}

package analysis

import (
	"testing"

	"decompstudy/internal/compile"
)

// nestedLoops builds
//
//	b0 → b1 → b2 → b3 → b2 (inner back edge)
//	          b2 → b4 → b1 (outer back edge)
//	     b1 → b5 (exit)
func nestedLoops() *compile.Func {
	return tfn(1, 1,
		tb(0, br(1)),
		tb(1, condbr(compile.Temp(0), 2, 5)),
		tb(2, condbr(compile.Temp(0), 3, 4)),
		tb(3, br(2)),
		tb(4, br(1)),
		tb(5, ret(compile.Temp(0))),
	)
}

func TestDominatorsSets(t *testing.T) {
	g := NewGraph(diamond())
	d := Dominators(g)
	// Entry dominates everything; neither arm dominates the join.
	for i := 0; i < 4; i++ {
		if !d.Dominates(0, i) {
			t.Errorf("entry should dominate block %d", i)
		}
		if !d.Dominates(i, i) {
			t.Errorf("block %d should dominate itself", i)
		}
	}
	if d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Error("diamond arms must not dominate the join")
	}
	if d.MaxDepth() != 0 {
		t.Errorf("acyclic MaxDepth = %d, want 0", d.MaxDepth())
	}
	if len(d.BackEdges) != 0 {
		t.Errorf("acyclic BackEdges = %v, want none", d.BackEdges)
	}
}

func TestDominatorsNestedLoops(t *testing.T) {
	g := NewGraph(nestedLoops())
	d := Dominators(g)

	if len(d.BackEdges) != 2 {
		t.Fatalf("BackEdges = %v, want 2 edges", d.BackEdges)
	}
	edges := map[[2]int]bool{}
	for _, e := range d.BackEdges {
		edges[e] = true
	}
	if !edges[[2]int{3, 2}] || !edges[[2]int{4, 1}] {
		t.Errorf("BackEdges = %v, want 3→2 and 4→1", d.BackEdges)
	}

	inner, outer := d.Loops[2], d.Loops[1]
	if inner == nil || outer == nil {
		t.Fatalf("Loops = %v, want headers 1 and 2", d.Loops)
	}
	if inner.Count() != 2 || !inner.Has(2) || !inner.Has(3) {
		t.Errorf("inner loop body count=%d, want {2,3}", inner.Count())
	}
	if outer.Count() != 4 || !outer.Has(1) || !outer.Has(4) {
		t.Errorf("outer loop body count=%d, want {1,2,3,4}", outer.Count())
	}

	wantDepth := []int{0, 1, 2, 2, 1, 0}
	for i, w := range wantDepth {
		if d.Depth[i] != w {
			t.Errorf("Depth[%d] = %d, want %d", i, d.Depth[i], w)
		}
	}
	if d.MaxDepth() != 2 {
		t.Errorf("MaxDepth = %d, want 2", d.MaxDepth())
	}
}

func TestDominatorsEmptyFunc(t *testing.T) {
	d := Dominators(NewGraph(&compile.Func{Name: "empty"}))
	if d.MaxDepth() != 0 || len(d.BackEdges) != 0 {
		t.Errorf("empty func dominators: depth=%d backedges=%v", d.MaxDepth(), d.BackEdges)
	}
}

func TestDominatorTreeNestedLoops(t *testing.T) {
	d := Dominators(NewGraph(nestedLoops()))
	wantIdom := []int{-1, 0, 1, 2, 2, 1}
	for i, w := range wantIdom {
		if d.Idom[i] != w {
			t.Errorf("Idom[%d] = %d, want %d", i, d.Idom[i], w)
		}
	}
	wantChildren := [][]int{{1}, {2, 5}, {3, 4}, nil, nil, nil}
	for i, w := range wantChildren {
		if len(d.Children[i]) != len(w) {
			t.Errorf("Children[%d] = %v, want %v", i, d.Children[i], w)
			continue
		}
		for j := range w {
			if d.Children[i][j] != w[j] {
				t.Errorf("Children[%d] = %v, want %v", i, d.Children[i], w)
			}
		}
	}
	if !d.Dominates(1, 4) || !d.Dominates(2, 3) || d.Dominates(3, 4) || d.Dominates(5, 2) {
		t.Error("Dominates disagrees with the tree 0→1→{2→{3,4}, 5}")
	}
}

// TestDominatorTreeUnreachable pins the must-dataflow answers the tree
// keeps for blocks entry cannot reach: every block dominates an
// unreachable one, and an unreachable block dominates no reachable one.
func TestDominatorTreeUnreachable(t *testing.T) {
	fn := tfn(1, 1,
		tb(0, ret(compile.Temp(0))),
		tb(1, br(0)),
	)
	d := Dominators(NewGraph(fn))
	if d.Idom[0] != -1 || d.Idom[1] != -1 {
		t.Errorf("Idom = %v, want [-1 -1]", d.Idom)
	}
	if !d.Dominates(0, 1) || !d.Dominates(1, 1) {
		t.Error("an unreachable block must be dominated by every block")
	}
	if d.Dominates(1, 0) {
		t.Error("an unreachable block must not dominate entry")
	}
	if d.Dominates(0, 2) || d.Dominates(-1, 0) {
		t.Error("out-of-range indices must not dominate or be dominated")
	}
}

// TestDomTreePostDominatorShape runs the engine the way the lifter does:
// on reversed edges from a virtual exit (node 4) that the return block 3
// feeds. In the diamond 0→{1,2}→3 the join post-dominates the whole
// function.
func TestDomTreePostDominatorShape(t *testing.T) {
	rev := [][]int{0: nil, 1: {0}, 2: {0}, 3: {1, 2}, 4: {3}}
	tr := NewDomTree(4, rev)
	want := []int{3, 3, 3, 4, -1}
	for i, w := range want {
		if tr.Idom[i] != w {
			t.Errorf("ipdom[%d] = %d, want %d", i, tr.Idom[i], w)
		}
	}
}

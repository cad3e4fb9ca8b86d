package analysis

// DomTree is the immediate-dominator tree of a rooted graph, computed
// with Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm"
// (2001): iterate idom(b) = ∩ over b's processed predecessors in reverse
// postorder, where ∩ walks both fingers up the partial tree until they
// meet. Reducible graphs converge in two passes, so the whole build is
// linear in practice. Preorder numbers and subtree sizes over the tree
// make Dominates O(1).
//
// The same engine serves forward dominators (Dominators, on the CFG from
// entry) and post-dominators (the lifter runs it on the reversed CFG from
// a virtual exit node).
type DomTree struct {
	// Idom[v] is v's immediate dominator; -1 for the root and for nodes
	// the root does not reach.
	Idom []int
	// Children[v] lists v's tree children in ascending order.
	Children [][]int
	// pre is the tree preorder number (-1 off the tree); size is the
	// subtree size, so a dominates b iff pre[b] ∈ [pre[a], pre[a]+size[a]).
	pre, size []int
}

// NewDomTree builds the dominator tree of the graph whose node v has
// successors succs[v], rooted at root. Successor indices must lie in
// [0, len(succs)).
func NewDomTree(root int, succs [][]int) *DomTree {
	n := len(succs)
	t := &DomTree{Idom: make([]int, n), Children: make([][]int, n), pre: make([]int, n), size: make([]int, n)}
	for v := range t.Idom {
		t.Idom[v], t.pre[v] = -1, -1
	}
	if n == 0 {
		return t
	}
	rpo := reversePostorder(root, succs, NewBits(n))
	num := make([]int, n) // reverse-postorder number of each reached node
	preds := make([][]int, n)
	for i, u := range rpo {
		num[u] = i
		for _, v := range succs[u] {
			preds[v] = append(preds[v], u)
		}
	}

	idom := t.Idom
	idom[root] = root
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			nd := -1
			for _, p := range preds[b] {
				if idom[p] < 0 {
					continue // not processed yet
				}
				if nd < 0 {
					nd = p
					continue
				}
				for p != nd {
					for num[p] > num[nd] {
						p = idom[p]
					}
					for num[nd] > num[p] {
						nd = idom[nd]
					}
				}
			}
			if idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}
	idom[root] = -1

	for v, d := range idom {
		if d >= 0 {
			t.Children[d] = append(t.Children[d], v)
		}
	}
	// A stack walk numbers each subtree contiguously; sizes accumulate
	// bottom-up in reverse preorder.
	order := make([]int, 0, len(rpo))
	for stack := []int{root}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.pre[v] = len(order)
		order = append(order, v)
		stack = append(stack, t.Children[v]...)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		t.size[v]++
		if d := idom[v]; d >= 0 {
			t.size[d] += t.size[v]
		}
	}
	return t
}

// Dominates reports whether a dominates b (every node dominates itself).
// An unreached b is dominated by every node, the answer of the classic
// must-dataflow whose sets start universal; an unreached a dominates no
// reached node.
func (t *DomTree) Dominates(a, b int) bool {
	if b < 0 || b >= len(t.pre) || a < 0 || a >= len(t.pre) {
		return false
	}
	if t.pre[b] < 0 {
		return true
	}
	return t.pre[a] >= 0 && t.pre[a] <= t.pre[b] && t.pre[b] < t.pre[a]+t.size[a]
}

// reversePostorder marks every node reachable from root in seen and
// returns them in reverse DFS postorder, visiting successors in list
// order. The walk is iterative, so graph depth never bounds the goroutine
// stack.
func reversePostorder(root int, succs [][]int, seen Bits) []int {
	type frame struct{ node, next int }
	var out []int
	seen.Set(root)
	stack := []frame{{node: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succs[f.node]) {
			s := succs[f.node][f.next]
			f.next++
			if !seen.Has(s) {
				seen.Set(s)
				stack = append(stack, frame{node: s})
			}
			continue
		}
		out = append(out, f.node)
		stack = stack[:len(stack)-1]
	}
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

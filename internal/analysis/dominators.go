package analysis

// DomInfo holds the dominator analysis of one function over dense block
// indices: the immediate-dominator tree (Idom, Children, O(1) Dominates),
// the back edges, and the natural loops they induce.
type DomInfo struct {
	*DomTree
	// BackEdges lists the (tail, head) index pairs where head dominates
	// tail.
	BackEdges [][2]int
	// Loops maps a loop-header index to the body set (header included).
	Loops map[int]Bits
	// Depth[i] is the loop-nesting depth of block i (0 = not in a loop).
	Depth []int
}

// Dominators builds the dominator tree from entry (see DomTree), then
// derives back edges, natural loops, and per-block loop depth.
func Dominators(g *Graph) *DomInfo {
	n := g.NumBlocks()
	d := &DomInfo{DomTree: NewDomTree(0, g.Succs), Loops: map[int]Bits{}, Depth: make([]int, n)}

	// Back edges: u→h with h dominating u, both reachable.
	for u := 0; u < n; u++ {
		if !g.Reach.Has(u) {
			continue
		}
		for _, h := range g.Succs[u] {
			if d.Dominates(h, u) {
				d.BackEdges = append(d.BackEdges, [2]int{u, h})
			}
		}
	}

	// Natural loop of u→h: {h} plus everything reaching u without
	// passing h, found by a reverse flood from u.
	for _, e := range d.BackEdges {
		u, h := e[0], e[1]
		body := d.Loops[h]
		if body == nil {
			body = NewBits(n)
			body.Set(h)
			d.Loops[h] = body
		}
		stack := []int{u}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body.Has(v) {
				continue
			}
			body.Set(v)
			stack = append(stack, g.Preds[v]...)
		}
	}

	for _, body := range d.Loops {
		body.ForEach(func(i int) { d.Depth[i]++ })
	}
	return d
}

// MaxDepth returns the deepest loop nesting in the function.
func (d *DomInfo) MaxDepth() int {
	max := 0
	for _, v := range d.Depth {
		if v > max {
			max = v
		}
	}
	return max
}

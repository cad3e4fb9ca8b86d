package analysis

import (
	"math/bits"

	"decompstudy/internal/compile"
)

// Bits is a fixed-capacity bitset — the fact representation every shipped
// dataflow pass uses (block sets, definition sites, live temps).
type Bits []uint64

// NewBits returns a bitset able to hold n elements.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Set adds i to the set.
func (b Bits) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear removes i from the set.
func (b Bits) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (b Bits) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Fill adds every element in [0, n), a whole word at a time.
func (b Bits) Fill(n int) {
	full := n / 64
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	if tail := uint(n % 64); tail != 0 {
		b[full] |= 1<<tail - 1
	}
}

// Union adds o's elements, reporting whether b changed.
func (b Bits) Union(o Bits) bool {
	changed := false
	for i, w := range o {
		nw := b[i] | w
		if nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect keeps only elements also in o, reporting whether b changed.
func (b Bits) Intersect(o Bits) bool {
	changed := false
	for i := range b {
		var w uint64
		if i < len(o) {
			w = o[i]
		}
		nw := b[i] & w
		if nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// AndNot removes o's elements from b.
func (b Bits) AndNot(o Bits) {
	for i, w := range o {
		b[i] &^= w
	}
}

// Equal reports set equality.
func (b Bits) Equal(o Bits) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// Count returns the number of elements in the set.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every element in ascending order.
func (b Bits) ForEach(fn func(int)) {
	for i, w := range b {
		for w != 0 {
			j := bits.TrailingZeros64(w)
			fn(i*64 + j)
			w &^= 1 << uint(j)
		}
	}
}

// Graph is the control-flow graph of one function, with blocks addressed
// by dense index rather than block ID so passes can use slices and
// bitsets. Construction never fails: edges to nonexistent blocks are
// dropped (the verifier reports them separately), which lets the
// verifier itself run dataflow over partially malformed IR.
type Graph struct {
	Fn *compile.Func
	// Blocks holds the function's blocks in Func order; index 0 is entry.
	Blocks []*compile.Block
	// Index maps block ID → dense index.
	Index map[int]int
	// Succs and Preds are edge lists by dense index.
	Succs, Preds [][]int
	// Reach marks the block indices reachable from entry.
	Reach Bits
	// RPO lists the reachable block indices in reverse postorder.
	RPO []int
}

// NewGraph builds the CFG for fn.
func NewGraph(fn *compile.Func) *Graph {
	n := len(fn.Blocks)
	g := &Graph{
		Fn:     fn,
		Blocks: fn.Blocks,
		Index:  make(map[int]int, n),
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		Reach:  NewBits(n),
	}
	for i, b := range fn.Blocks {
		// First block with a given ID wins; duplicates are a verifier
		// finding, not a graph-construction fault.
		if _, dup := g.Index[b.ID]; !dup {
			g.Index[b.ID] = i
		}
	}
	for i, b := range fn.Blocks {
		for _, s := range b.Succs() {
			j, ok := g.Index[s]
			if !ok {
				continue
			}
			g.Succs[i] = append(g.Succs[i], j)
			g.Preds[j] = append(g.Preds[j], i)
		}
	}
	if n > 0 {
		g.RPO = reversePostorder(0, g.Succs, g.Reach)
	}
	return g
}

// NumBlocks returns the block count.
func (g *Graph) NumBlocks() int { return len(g.Blocks) }

// NumEdges returns the CFG edge count over reachable blocks.
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.Blocks {
		if g.Reach.Has(i) {
			n += len(g.Succs[i])
		}
	}
	return n
}

// usedTemps appends the temp IDs the instruction reads to dst: value
// operands, call arguments, and temp callees (function pointers).
func usedTemps(in compile.Instr, dst []int) []int {
	add := func(o compile.Operand) {
		if o.Kind == compile.OperandTemp {
			dst = append(dst, o.Temp)
		}
	}
	add(in.A)
	add(in.B)
	if in.Op == compile.OpCall {
		add(in.Callee)
		for _, a := range in.Args {
			add(a)
		}
	}
	return dst
}

// defTemp returns the temp the instruction defines, or -1. Only
// register-writing opcodes count: Store writes memory and branch/return
// terminators define nothing, whatever their Dst field holds.
func defTemp(in compile.Instr) int {
	switch in.Op {
	case compile.OpStore, compile.OpRet, compile.OpBr, compile.OpCondBr:
		return -1
	}
	if in.Dst >= 0 {
		return in.Dst
	}
	return -1
}

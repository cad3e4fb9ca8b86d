// Package decomp lifts the project IR back into Hex-Rays-style pseudo-C,
// completing the lossy compile→decompile pipeline the paper's snippets went
// through. The lifter performs the classic decompilation steps on the
// reducible CFGs our compiler emits:
//
//   - control-flow structuring: natural-loop detection via back edges and
//     if/else join recovery via immediate post-dominators,
//   - expression reconstruction: forward substitution of single-use
//     temporaries back into expression trees,
//   - type recovery: widths and access patterns become the Hex-Rays type
//     idiom (__int64, _QWORD casts, _BYTE * parameters),
//   - renaming: parameters become a1..aN and locals v1..vN, with fabricated
//     stack-slot comments, exactly the surface the study participants saw.
//
// The result carries a name map from stripped names back to the original
// symbols, which internal/recover uses to emit DIRTY-style annotations and
// which the metric harness uses as ground truth.
package decomp

import (
	"errors"
	"fmt"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
)

// ErrStructure is returned when the CFG cannot be structured (irreducible
// or malformed input).
var ErrStructure = errors.New("decomp: cannot structure control flow")

// cfg is the analyzed control-flow graph of one function: the
// analysis.Graph (blocks by dense index in Func order, entry 0, with
// successor and predecessor lists; a CondBr's successors are [Target,
// Else]), its natural loops, and its post-dominator tree. Structuring
// addresses blocks by index; -1 stands for no block (the virtual exit, or
// no follow).
type cfg struct {
	*analysis.Graph
	// loops maps a header index to its natural loop body, a set of
	// indices (header included), from analysis.Dominators' back edges.
	loops map[int]analysis.Bits
	// ipdom is each block's immediate post-dominator; -1 for the virtual
	// exit.
	ipdom []int
}

// analyze builds the CFG with loops and post-dominators. Both come from
// the analysis.DomTree engine, so the whole analysis is linear in the
// block count on the structured CFGs the compiler emits.
func analyze(fn *compile.Func) (*cfg, error) {
	if len(fn.Blocks) == 0 {
		return nil, fmt.Errorf("decomp: function %s has no blocks: %w", fn.Name, ErrStructure)
	}
	g := &cfg{Graph: analysis.NewGraph(fn)}
	for i, b := range fn.Blocks {
		// An empty block has no terminator: Block.Term() returns a zero
		// Instr and Succs() nil, which would silently treat the block as
		// a return block. Reject it up front instead.
		if _, ok := b.Terminator(); !ok {
			return nil, fmt.Errorf("decomp: function %s: block b%d is empty (no terminator): %w",
				fn.Name, b.ID, ErrStructure)
		}
		// NewGraph drops edges to blocks that do not exist.
		if len(g.Succs[i]) != len(b.Succs()) {
			return nil, fmt.Errorf("decomp: function %s: block b%d branches to a missing block: %w",
				fn.Name, b.ID, ErrStructure)
		}
	}
	g.loops = analysis.Dominators(g.Graph).Loops
	g.computePostDominators()
	return g, nil
}

// computePostDominators runs the analysis.DomTree engine on the reversed
// CFG, where node NumBlocks() is a virtual exit that every return block
// feeds. A block whose immediate post-dominator is that exit gets -1. So
// does a block that cannot reach a return at all (the body of a while(1)
// with no break): it has no post-dominator, and liftCondBr picks such a
// conditional's join by reachability instead. The set-based computation
// this replaced gave such blocks whichever loop block map iteration
// offered first.
func (g *cfg) computePostDominators() {
	exit := g.NumBlocks()
	rev := append(g.Preds[:exit:exit], nil)
	for i, ss := range g.Succs {
		if len(ss) == 0 {
			rev[exit] = append(rev[exit], i)
		}
	}
	g.ipdom = analysis.NewDomTree(exit, rev).Idom[:exit]
	for i, d := range g.ipdom {
		if d == exit {
			g.ipdom[i] = -1
		}
	}
}

// reachable reports whether `to` can be reached from `from` along CFG
// edges without passing through `avoid`.
func (g *cfg) reachable(from, to, avoid int) bool {
	if from == avoid {
		return false
	}
	seen := analysis.NewBits(g.NumBlocks())
	seen.Set(avoid)
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen.Has(n) {
			continue
		}
		seen.Set(n)
		stack = append(stack, g.Succs[n]...)
	}
	return false
}

// isLoopHeader reports whether block i heads a natural loop.
func (g *cfg) isLoopHeader(i int) bool {
	_, ok := g.loops[i]
	return ok
}

// loopExit returns the CondBr successor of a loop header that leaves the
// loop, plus the successor that stays inside. ok is false for headers
// without a conditional exit (while(1) shapes).
func (g *cfg) loopExit(header int) (body, exit int, ok bool) {
	if g.Blocks[header].Term().Op != compile.OpCondBr {
		return 0, 0, false
	}
	set := g.loops[header]
	t, e := g.Succs[header][0], g.Succs[header][1]
	switch inT, inE := set.Has(t), set.Has(e); {
	case inT && !inE:
		return t, e, true
	case inE && !inT:
		return e, t, true
	default:
		return 0, 0, false
	}
}

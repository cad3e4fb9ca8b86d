// Package opt is the SSA-based optimizer for the project's three-address
// IR: construction via dominance-frontier phi placement (on top of
// analysis.Dominators), three classic passes — sparse conditional
// constant propagation with branch folding, copy propagation, and
// dead-code elimination — and out-of-SSA deconstruction back to plain
// compile.Func form, exposed as the study's optimization levels:
//
//	-O0  identity (the default; study artifacts stay byte-identical)
//	-O1  constprop + DCE
//	-O2  adds copy propagation and iterates the pipeline to a fixpoint
//
// Every pass is double-gated: the internal/analysis verifier must report
// zero diagnostics on the pass output (a structured Diag rides the error
// otherwise), and OptimizeObject differentially executes the original and
// optimized IR on randomized inputs through compile.Machine, requiring
// exact agreement. For the study, optimization is an annotation-difficulty
// axis: passes delete and rewrite the very instructions the symbol table
// anchors names to, so fewer annotations survive lifting at higher levels.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
)

// phi is one SSA phi node: dst takes the value of args[j] when control
// arrives over the j-th predecessor edge of the block (slot order matches
// the dense Preds list of the CFG). Args hold value-indexed Temp operands
// at construction; passes may rewrite them to constants.
type phi struct {
	dst  int // SSA value defined
	orig int // original temp this phi versions
	args []compile.Operand
}

// ssaBlock mirrors one reachable block of the source function with
// operands renamed to SSA values.
type ssaBlock struct {
	id     int // original block ID
	phis   []phi
	instrs []compile.Instr // Temp operands and Dst hold SSA value IDs
}

// ssaFunc is a function in SSA form. Values 0..NParams-1 are the incoming
// parameters; every other value has exactly one definition (a phi, an
// instruction Dst, or a synthetic zero-initialization at entry, matching
// the interpreter's zero-filled register file).
type ssaFunc struct {
	fn *compile.Func
	g  *analysis.Graph
	// idom and children are the analysis.Dominators tree over dense block
	// indices; idom[entry] = -1, unreachable blocks carry -1.
	idom     []int
	children [][]int
	// blocks is indexed by dense block index; nil for unreachable blocks.
	blocks []*ssaBlock
	// live marks the blocks the optimized function still contains; SCCP
	// clears it for blocks proven unexecutable.
	live []bool
	// nvals counts SSA values; origOf maps a value to the original temp it
	// versions (-1 for none).
	nvals  int
	origOf []int
	// zeroVals lists, in creation order, the values that materialize the
	// interpreter's implicit zero for temps read before any definition on
	// some path; deconstruct emits them as `mov v, 0` at entry.
	zeroVals []int
	zeroOf   []int // temp → zero value, -1 if none
}

// buildSSA converts fn (which must be verifier-error-free) into SSA form.
// Unreachable blocks are dropped here: they contribute no semantics and
// removing them is what lets the output be verifier-warning-free too.
func buildSSA(fn *compile.Func) *ssaFunc {
	g := analysis.NewGraph(fn)
	if len(g.Preds[0]) > 0 {
		// The entry block is a branch target (a loop back to block 0):
		// parameters would then flow in over an implicit edge no phi slot
		// represents. Split it: a synthetic entry that only branches to the
		// old one restores the invariant that entry has no predecessors.
		fn = splitEntry(fn)
		g = analysis.NewGraph(fn)
	}
	dom := analysis.Dominators(g)
	s := &ssaFunc{
		fn:       fn,
		g:        g,
		idom:     dom.Idom,
		children: dom.Children,
		blocks:   make([]*ssaBlock, len(g.Blocks)),
		live:     make([]bool, len(g.Blocks)),
		zeroOf:   make([]int, fn.NTemps),
	}
	for t := range s.zeroOf {
		s.zeroOf[t] = -1
	}
	for i := range g.Blocks {
		if g.Reach.Has(i) {
			s.live[i] = true
			s.blocks[i] = &ssaBlock{id: g.Blocks[i].ID}
		}
	}
	// Parameters are values 0..NParams-1.
	s.nvals = fn.NParams
	s.origOf = make([]int, fn.NParams)
	for p := 0; p < fn.NParams; p++ {
		s.origOf[p] = p
	}
	s.placePhis()
	s.rename()
	return s
}

// splitEntry returns a copy of fn with a fresh entry block (a previously
// unused ID) that only branches to the old entry, so block 0 of the copy
// has no CFG predecessors. Blocks and instructions are shared with the
// input — callers treat them as read-only.
func splitEntry(fn *compile.Func) *compile.Func {
	maxID := 0
	for _, b := range fn.Blocks {
		if b.ID > maxID {
			maxID = b.ID
		}
	}
	nf := *fn
	nf.Blocks = make([]*compile.Block, 0, len(fn.Blocks)+1)
	nf.Blocks = append(nf.Blocks, &compile.Block{
		ID:     maxID + 1,
		Instrs: []compile.Instr{{Op: compile.OpBr, Dst: -1, Target: fn.Blocks[0].ID}},
	})
	nf.Blocks = append(nf.Blocks, fn.Blocks...)
	return &nf
}

// frontiers computes the dominance frontier of every reachable block with
// the classic Cytron walk: for a join block b, every reachable
// predecessor p and its dominators up to (excluding) idom(b) have b in
// their frontier.
func (s *ssaFunc) frontiers() [][]int {
	n := len(s.g.Blocks)
	df := make([][]int, n)
	in := make([]analysis.Bits, n)
	for i := range in {
		in[i] = analysis.NewBits(n)
	}
	for b := 0; b < n; b++ {
		if !s.g.Reach.Has(b) || len(s.g.Preds[b]) < 2 {
			continue
		}
		for _, p := range s.g.Preds[b] {
			if !s.g.Reach.Has(p) {
				continue
			}
			for runner := p; runner != -1 && runner != s.idom[b]; runner = s.idom[runner] {
				if !in[runner].Has(b) {
					in[runner].Set(b)
					df[runner] = append(df[runner], b)
				}
				if runner == 0 {
					break
				}
			}
		}
	}
	return df
}

// placePhis inserts pruned-SSA phi nodes: a temp gets a phi at the
// iterated dominance frontier of its definition blocks, but only where it
// is live into the join (liveness pruning keeps the out-of-SSA copy count
// near what the original had).
func (s *ssaFunc) placePhis() {
	df := s.frontiers()
	liv := analysis.Liveness(s.g)
	n := len(s.g.Blocks)

	defBlocks := make([]analysis.Bits, s.fn.NTemps)
	for t := range defBlocks {
		defBlocks[t] = analysis.NewBits(n)
	}
	for p := 0; p < s.fn.NParams; p++ {
		defBlocks[p].Set(0)
	}
	for bi, b := range s.g.Blocks {
		if !s.g.Reach.Has(bi) {
			continue
		}
		for _, in := range b.Instrs {
			if d := defTempOf(in); d >= 0 && d < s.fn.NTemps {
				defBlocks[d].Set(bi)
			}
		}
	}

	for t := 0; t < s.fn.NTemps; t++ {
		if defBlocks[t].Count() == 0 {
			continue
		}
		hasPhi := analysis.NewBits(n)
		var work []int
		defBlocks[t].ForEach(func(b int) { work = append(work, b) })
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[b] {
				if hasPhi.Has(y) || !liv.In[y].Has(t) {
					continue
				}
				hasPhi.Set(y)
				s.blocks[y].phis = append(s.blocks[y].phis, phi{
					orig: t,
					args: make([]compile.Operand, len(s.g.Preds[y])),
				})
				if !defBlocks[t].Has(y) {
					work = append(work, y)
				}
			}
		}
	}
	// Keep phi order deterministic: ascending by versioned temp.
	for _, b := range s.blocks {
		if b != nil {
			sort.SliceStable(b.phis, func(i, j int) bool { return b.phis[i].orig < b.phis[j].orig })
		}
	}
}

// rename walks the dominator tree assigning SSA values: a stack per
// original temp, a fresh value at each definition, reads rewritten to the
// stack top. A read with an empty stack means the original could reach
// this use with the temp never written — the interpreter's register file
// is zero-filled, so such reads see a synthetic zero value defined at
// entry.
func (s *ssaFunc) rename() {
	stacks := make([][]int, s.fn.NTemps)

	newValue := func(orig int) int {
		v := s.nvals
		s.nvals++
		s.origOf = append(s.origOf, orig)
		return v
	}
	lookup := func(t int) int {
		if st := stacks[t]; len(st) > 0 {
			return st[len(st)-1]
		}
		if s.zeroOf[t] < 0 {
			v := newValue(t)
			s.zeroOf[t] = v
			s.zeroVals = append(s.zeroVals, v)
		}
		return s.zeroOf[t]
	}
	rewriteUse := func(o compile.Operand) compile.Operand {
		if o.Kind == compile.OperandTemp {
			return compile.Temp(lookup(o.Temp))
		}
		return o
	}

	var walk func(b int)
	walk = func(b int) {
		var pushed []int // temps pushed in this block, for the epilogue pop
		push := func(t, v int) {
			stacks[t] = append(stacks[t], v)
			pushed = append(pushed, t)
		}
		if b == 0 {
			for p := 0; p < s.fn.NParams; p++ {
				push(p, p)
			}
		}
		sb := s.blocks[b]
		for i := range sb.phis {
			sb.phis[i].dst = newValue(sb.phis[i].orig)
			push(sb.phis[i].orig, sb.phis[i].dst)
		}
		for _, in := range s.g.Blocks[b].Instrs {
			out := in
			out.A = rewriteUse(in.A)
			out.B = rewriteUse(in.B)
			if in.Op == compile.OpCall {
				out.Callee = rewriteUse(in.Callee)
				out.Args = make([]compile.Operand, len(in.Args))
				for i, a := range in.Args {
					out.Args[i] = rewriteUse(a)
				}
			}
			if d := defTempOf(in); d >= 0 {
				v := newValue(d)
				out.Dst = v
				push(d, v)
			} else if in.Op != compile.OpCall {
				out.Dst = -1
			}
			sb.instrs = append(sb.instrs, out)
		}
		// Fill this block's slots in every successor phi. Duplicate edges
		// (condbr with both arms on one target) fill both slots with the
		// same value, which is exactly their semantics.
		for _, succ := range s.g.Succs[b] {
			tb := s.blocks[succ]
			for pi := range tb.phis {
				for slot, pred := range s.g.Preds[succ] {
					if pred == b {
						tb.phis[pi].args[slot] = compile.Temp(lookup(tb.phis[pi].orig))
					}
				}
			}
		}
		for _, c := range s.children[b] {
			walk(c)
		}
		for _, t := range pushed {
			stacks[t] = stacks[t][:len(stacks[t])-1]
		}
	}
	if len(s.g.Blocks) > 0 && s.g.Reach.Has(0) {
		walk(0)
	}
}

// countInstrs returns the SSA instruction count (phis included) over live
// blocks — the size metric the fixpoint loop and the obs counters use.
func (s *ssaFunc) countInstrs() int {
	n := 0
	for bi, b := range s.blocks {
		if b == nil || !s.live[bi] {
			continue
		}
		n += len(b.phis) + len(b.instrs)
	}
	return n
}

// String renders the SSA form for the golden phi-placement tests: values
// as vN, phis with their per-predecessor arguments.
func (s *ssaFunc) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ssa %s(%d params, %d values):\n", s.fn.Name, s.fn.NParams, s.nvals)
	for _, zv := range s.zeroVals {
		fmt.Fprintf(&sb, "  v%d = zero (t%d)\n", zv, s.origOf[zv])
	}
	for bi, b := range s.blocks {
		if b == nil || !s.live[bi] {
			continue
		}
		fmt.Fprintf(&sb, "b%d:\n", b.id)
		for _, p := range b.phis {
			parts := make([]string, len(p.args))
			for j, a := range p.args {
				from := "?"
				if j < len(s.g.Preds[bi]) {
					from = fmt.Sprintf("b%d", s.g.Blocks[s.g.Preds[bi][j]].ID)
				}
				parts[j] = fmt.Sprintf("%s: %s", from, renderOperand(a))
			}
			fmt.Fprintf(&sb, "  v%d = phi(t%d) [%s]\n", p.dst, p.orig, strings.Join(parts, ", "))
		}
		for _, in := range b.instrs {
			fmt.Fprintf(&sb, "  %s\n", renderInstr(in))
		}
	}
	return sb.String()
}

// renderOperand prints an SSA operand (Temp fields are value IDs).
func renderOperand(o compile.Operand) string {
	if o.Kind == compile.OperandTemp {
		return fmt.Sprintf("v%d", o.Temp)
	}
	return o.String()
}

// renderInstr prints one SSA instruction with vN value names.
func renderInstr(in compile.Instr) string {
	switch in.Op {
	case compile.OpLoad:
		return fmt.Sprintf("v%d = load%d %s", in.Dst, in.Width, renderOperand(in.A))
	case compile.OpStore:
		return fmt.Sprintf("store%d %s, %s", in.Width, renderOperand(in.A), renderOperand(in.B))
	case compile.OpCall:
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			parts[i] = renderOperand(a)
		}
		call := fmt.Sprintf("call %s(%s)", renderOperand(in.Callee), strings.Join(parts, ", "))
		if in.Dst >= 0 {
			return fmt.Sprintf("v%d = %s", in.Dst, call)
		}
		return call
	case compile.OpRet:
		if in.A.Kind == compile.OperandNone {
			return "ret"
		}
		return "ret " + renderOperand(in.A)
	case compile.OpBr:
		return fmt.Sprintf("br b%d", in.Target)
	case compile.OpCondBr:
		return fmt.Sprintf("condbr %s, b%d, b%d", renderOperand(in.A), in.Target, in.Else)
	case compile.OpMov:
		return fmt.Sprintf("v%d = %s", in.Dst, renderOperand(in.A))
	case compile.OpNot, compile.OpNeg, compile.OpLNot:
		return fmt.Sprintf("v%d = %s %s", in.Dst, in.Op, renderOperand(in.A))
	default:
		return fmt.Sprintf("v%d = %s %s, %s", in.Dst, in.Op, renderOperand(in.A), renderOperand(in.B))
	}
}

// defTempOf mirrors analysis's defTemp: the temp an instruction defines,
// or -1 — stores, returns, and branches define nothing.
func defTempOf(in compile.Instr) int {
	switch in.Op {
	case compile.OpStore, compile.OpRet, compile.OpBr, compile.OpCondBr:
		return -1
	}
	if in.Dst >= 0 {
		return in.Dst
	}
	return -1
}

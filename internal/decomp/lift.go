package decomp

import (
	"context"
	"fmt"
	"strings"

	"decompstudy/internal/compile"
	"decompstudy/internal/csrc"
	"decompstudy/internal/fault"
	"decompstudy/internal/obs"
)

// Renamed records the decompiler's renaming of one original symbol — the
// ground-truth alignment the metric harness evaluates against.
type Renamed struct {
	Symbol  compile.Symbol
	NewName string
	NewType string
}

// Decompiled is the result of lifting one function.
type Decompiled struct {
	// Pseudo is the reconstructed pseudo-C function.
	Pseudo *csrc.Function
	// NameMap aligns original symbols to decompiler names, params first.
	NameMap []Renamed
}

// Source renders the pseudo-C with Hex-Rays-style declaration comments.
func (d *Decompiled) Source() string {
	return csrc.PrintFunction(d.Pseudo, &csrc.PrintOptions{DeclComments: true})
}

// Lift decompiles every function in the object.
func Lift(obj *compile.Object) ([]*Decompiled, error) {
	out := make([]*Decompiled, 0, len(obj.Funcs))
	for _, fn := range obj.Funcs {
		d, err := LiftFunc(fn)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// LiftFunc decompiles one function.
func LiftFunc(fn *compile.Func) (*Decompiled, error) {
	return LiftFuncCtx(context.Background(), fn)
}

// LiftFuncCtx is LiftFunc with telemetry: a decomp.LiftFunc span plus lift
// counters when the context carries an obs handle.
func LiftFuncCtx(ctx context.Context, fn *compile.Func) (*Decompiled, error) {
	_, sp := obs.StartSpan(ctx, "decomp.LiftFunc", obs.KV("func", fn.Name))
	defer sp.End()
	if err := fault.Check(ctx, fault.DecompLift); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStructure, err)
	}
	obs.AddCount(ctx, "decomp.lift.calls", 1)
	obs.AddCount(ctx, "decomp.lift.blocks", int64(len(fn.Blocks)))
	g, err := analyze(fn)
	if err != nil {
		return nil, err
	}
	lf := &lifter{g: g, fn: fn, arity: map[int]int{}}
	if err := lf.countUses(); err != nil {
		return nil, err
	}
	lf.assignNames()

	body, err := lf.seq(0, -1, 0)
	if err != nil {
		return nil, fmt.Errorf("decomp: function %s: %w", fn.Name, err)
	}

	pseudo := &csrc.Function{
		Ret:      lf.retType(),
		Name:     fn.Name,
		CallConv: "__fastcall",
		Body:     &csrc.Block{},
	}
	var nameMap []Renamed
	for _, sym := range fn.Symbols {
		if sym.Kind != compile.VarParam {
			continue
		}
		t := lf.symbolType(sym)
		pseudo.Params = append(pseudo.Params, csrc.Param{Type: t, Name: lf.names[sym.Temp]})
		nameMap = append(nameMap, Renamed{Symbol: sym, NewName: lf.names[sym.Temp], NewType: t.String()})
	}
	// Hex-Rays declares every local at the top with stack-slot comments.
	declIdx := 0
	for _, sym := range fn.Symbols {
		if sym.Kind != compile.VarLocal {
			continue
		}
		t := lf.symbolType(sym)
		pseudo.Body.Stmts = append(pseudo.Body.Stmts, &csrc.DeclStmt{
			Type:    t,
			Name:    lf.names[sym.Temp],
			Comment: stackComment(declIdx),
		})
		nameMap = append(nameMap, Renamed{Symbol: sym, NewName: lf.names[sym.Temp], NewType: t.String()})
		declIdx++
	}
	// Scratch temps that needed names get plain decls after the symbols.
	for t := fn.NParams; t < fn.NTemps; t++ {
		if lf.names[t] == "" {
			continue
		}
		if _, isSym := fn.SymbolForTemp(t); isSym {
			continue
		}
		pseudo.Body.Stmts = append(pseudo.Body.Stmts, &csrc.DeclStmt{
			Type:    widthType(8, true),
			Name:    lf.names[t],
			Comment: stackComment(declIdx),
		})
		declIdx++
	}
	pseudo.Body.Stmts = append(pseudo.Body.Stmts, body...)
	return &Decompiled{Pseudo: pseudo, NameMap: nameMap}, nil
}

// lifter carries per-function lifting state.
type lifter struct {
	g  *cfg
	fn *compile.Func
	// Per-temp state, indexed by temp: the Hex-Rays name ("" while the
	// temp is unnamed), use and definition counts, and the expression of a
	// single-use definition not yet folded into its consumer.
	names              []string
	useCount, defCount []int
	pending            []csrc.Expr
	arity              map[int]int // indirect-call arity per callee temp
	depth              int
	// currentLoop is the innermost loop context during structuring (nil
	// outside loops); branch() consults it to map edges to break/continue.
	currentLoop *loopCtx
}

// countUses sizes the per-temp state to every temp the function mentions
// and counts uses, definitions and indirect-call arities.
func (lf *lifter) countUses() error {
	var uses, defs []int
	use := func(o compile.Operand) {
		if o.Kind == compile.OperandTemp {
			uses = append(uses, o.Temp)
		}
	}
	for _, b := range lf.fn.Blocks {
		for _, in := range b.Instrs {
			use(in.A)
			use(in.B)
			use(in.Callee)
			for _, a := range in.Args {
				use(a)
			}
			if in.Dst >= 0 {
				defs = append(defs, in.Dst)
			}
			if in.Op == compile.OpCall && in.Callee.Kind == compile.OperandTemp {
				lf.arity[in.Callee.Temp] = len(in.Args)
			}
		}
	}
	syms := make([]int, len(lf.fn.Symbols))
	for i, sym := range lf.fn.Symbols {
		syms[i] = sym.Temp
	}
	n := max(lf.fn.NTemps, lf.fn.NParams)
	for _, ts := range [][]int{uses, defs, syms} {
		for _, t := range ts {
			if t < 0 {
				return fmt.Errorf("negative temp t%d: %w", t, ErrStructure)
			}
			n = max(n, t+1)
		}
	}
	lf.names, lf.pending = make([]string, n), make([]csrc.Expr, n)
	lf.useCount, lf.defCount = make([]int, n), make([]int, n)
	for _, t := range uses {
		lf.useCount[t]++
	}
	for _, t := range defs {
		lf.defCount[t]++
	}
	return nil
}

// assignNames gives Hex-Rays names to params, named locals, and any scratch
// temp that cannot be folded back into an expression.
func (lf *lifter) assignNames() {
	for t := 0; t < lf.fn.NParams; t++ {
		lf.names[t] = fmt.Sprintf("a%d", t+1)
	}
	for _, sym := range lf.fn.Symbols {
		if sym.Kind == compile.VarLocal {
			lf.names[sym.Temp] = fmt.Sprintf("v%d", sym.Temp+1)
		}
	}
	for t := 0; t < lf.fn.NTemps; t++ {
		if lf.names[t] == "" && (lf.defCount[t] > 1 || lf.useCount[t] > 1) {
			lf.names[t] = fmt.Sprintf("v%d", t+1)
		}
	}
}

// endsTerminal reports whether a statement list ends in a control transfer
// that makes an else arm redundant.
func endsTerminal(stmts []csrc.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch stmts[len(stmts)-1].(type) {
	case *csrc.Return, *csrc.Break, *csrc.Continue:
		return true
	default:
		return false
	}
}

func stackComment(i int) string {
	rsp := 0x28 + 8*i
	rbp := 0x18 - 8*i
	if rbp > 0 {
		return fmt.Sprintf("[rsp+%Xh] [rbp-%Xh]", rsp, rbp)
	}
	return fmt.Sprintf("[rsp+%Xh] [rbp+%Xh]", rsp, -rbp)
}

// widthType maps an access width to the Hex-Rays type spelling.
func widthType(width int, signed bool) *csrc.Type {
	switch width {
	case 1:
		return csrc.BaseType("char")
	case 2:
		return csrc.NamedType("__int16")
	case 4:
		if signed {
			return csrc.BaseType("int")
		}
		return csrc.BaseType("unsigned int")
	default:
		return csrc.NamedType("__int64")
	}
}

// castType maps a load/store width to the cast spelling Hex-Rays uses.
func castType(width int) *csrc.Type {
	switch width {
	case 1:
		return csrc.NamedType("_BYTE")
	case 2:
		return csrc.NamedType("_WORD")
	case 4:
		return csrc.NamedType("_DWORD")
	default:
		return csrc.NamedType("_QWORD")
	}
}

func (lf *lifter) retType() *csrc.Type {
	if lf.fn.RetWidth == 0 {
		return csrc.BaseType("void")
	}
	return widthType(lf.fn.RetWidth, lf.fn.RetSigned)
}

// symbolType renders the decompiled (recovered) type of a stripped symbol.
func (lf *lifter) symbolType(sym compile.Symbol) *csrc.Type {
	switch {
	case sym.IsFuncPtr:
		n := lf.arity[sym.Temp]
		params := make([]*csrc.Type, n)
		for i := range params {
			params[i] = csrc.NamedType("__int64")
		}
		return csrc.FuncType(csrc.NamedType("__int64"), params)
	case sym.Pointee == 1:
		return csrc.PointerTo(csrc.NamedType("_BYTE"))
	case sym.Pointee > 0:
		// Struct and integer pointers collapse to __int64 — the signature
		// information loss the paper's Figure 6 shows.
		return csrc.NamedType("__int64")
	default:
		return widthType(sym.Width, sym.Signed)
	}
}

// operand renders an IR operand as an expression, consuming pending
// single-use definitions.
func (lf *lifter) operand(o compile.Operand) csrc.Expr {
	switch o.Kind {
	case compile.OperandConst:
		return &csrc.IntLit{Text: fmt.Sprintf("%d", o.Const)}
	case compile.OperandSym:
		if strings.HasPrefix(o.Sym, "\"") {
			return &csrc.StrLit{Value: strings.Trim(o.Sym, "\"")}
		}
		return &csrc.Ident{Name: o.Sym}
	case compile.OperandTemp:
		if lf.names[o.Temp] != "" {
			return &csrc.Ident{Name: lf.names[o.Temp]}
		}
		if e := lf.pending[o.Temp]; e != nil {
			lf.pending[o.Temp] = nil
			return e
		}
		// A scratch temp consumed out of order; give it a name so output
		// stays well-formed.
		lf.names[o.Temp] = fmt.Sprintf("v%d", o.Temp+1)
		return &csrc.Ident{Name: lf.names[o.Temp]}
	default:
		return &csrc.IntLit{Text: "0"}
	}
}

// constLL renders an integer literal with the LL suffix Hex-Rays uses for
// 64-bit immediates.
func constLL(v int64) csrc.Expr {
	return &csrc.IntLit{Text: fmt.Sprintf("%dLL", v)}
}

var opToC = map[compile.Opcode]string{
	compile.OpAdd: "+", compile.OpSub: "-", compile.OpMul: "*",
	compile.OpDiv: "/", compile.OpRem: "%", compile.OpAnd: "&",
	compile.OpOr: "|", compile.OpXor: "^", compile.OpShl: "<<",
	compile.OpShr: ">>", compile.OpCmpEQ: "==", compile.OpCmpNE: "!=",
	compile.OpCmpLT: "<", compile.OpCmpLE: "<=", compile.OpCmpGT: ">",
	compile.OpCmpGE: ">=",
}

// instrExpr builds the expression computed by a non-terminator, non-store
// instruction.
func (lf *lifter) instrExpr(in compile.Instr) csrc.Expr {
	switch in.Op {
	case compile.OpMov:
		return lf.operand(in.A)
	case compile.OpLoad:
		addr := lf.operand(in.A)
		return &csrc.Unary{Op: "*", X: &csrc.Cast{To: csrc.PointerTo(castType(in.Width)), X: addr}}
	case compile.OpCall:
		call := &csrc.Call{Fun: lf.operand(in.Callee)}
		for _, a := range in.Args {
			call.Args = append(call.Args, lf.operand(a))
		}
		return call
	case compile.OpNeg:
		return &csrc.Unary{Op: "-", X: lf.operand(in.A)}
	case compile.OpNot:
		return &csrc.Unary{Op: "~", X: lf.operand(in.A)}
	case compile.OpLNot:
		return &csrc.Unary{Op: "!", X: lf.operand(in.A)}
	case compile.OpMul:
		// Scaling multiplies print their constant with the LL suffix:
		// 8LL * index.
		if in.A.Kind == compile.OperandConst {
			return &csrc.Binary{Op: "*", L: constLL(in.A.Const), R: lf.operand(in.B)}
		}
		return &csrc.Binary{Op: "*", L: lf.operand(in.A), R: lf.operand(in.B)}
	default:
		if op, ok := opToC[in.Op]; ok {
			l := lf.operand(in.A)
			r := lf.operand(in.B)
			return &csrc.Binary{Op: op, L: l, R: r}
		}
		return &csrc.IntLit{Text: "0"}
	}
}

// emitInstrs renders a block's non-terminator instructions into statements,
// folding single-use temps into pending expressions.
func (lf *lifter) emitInstrs(b *compile.Block) []csrc.Stmt {
	var stmts []csrc.Stmt
	instrs := b.Instrs
	if n := len(instrs); n > 0 {
		switch instrs[n-1].Op {
		case compile.OpRet, compile.OpBr, compile.OpCondBr:
			instrs = instrs[:n-1]
		}
	}
	for _, in := range instrs {
		switch in.Op {
		case compile.OpStore:
			addr := lf.operand(in.A)
			val := lf.operand(in.B)
			lhs := &csrc.Unary{Op: "*", X: &csrc.Cast{To: csrc.PointerTo(castType(in.Width)), X: addr}}
			stmts = append(stmts, &csrc.ExprStmt{X: &csrc.Assign{Op: "=", L: lhs, R: val}})
		default:
			e := lf.instrExpr(in)
			switch {
			case in.Dst < 0:
				stmts = append(stmts, &csrc.ExprStmt{X: e})
			case lf.names[in.Dst] != "":
				stmts = append(stmts, &csrc.ExprStmt{X: &csrc.Assign{
					Op: "=", L: &csrc.Ident{Name: lf.names[in.Dst]}, R: e,
				}})
			case lf.useCount[in.Dst] == 0:
				// Unused result: keep calls for their side effects, drop
				// dead arithmetic.
				if in.Op == compile.OpCall {
					stmts = append(stmts, &csrc.ExprStmt{X: e})
				}
			default:
				lf.pending[in.Dst] = e
			}
		}
	}
	return stmts
}

// negate builds the logical negation of a condition, flipping comparisons
// where possible.
func negate(e csrc.Expr) csrc.Expr {
	if b, ok := e.(*csrc.Binary); ok {
		flip := map[string]string{
			"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">",
		}
		if op, ok := flip[b.Op]; ok {
			return &csrc.Binary{Op: op, L: b.L, R: b.R}
		}
	}
	if u, ok := e.(*csrc.Unary); ok && u.Op == "!" {
		return u.X
	}
	return &csrc.Unary{Op: "!", X: e}
}

// seq structures the region from block index id up to (exclusive)
// follow. loopDepth guards against runaway recursion on malformed graphs.
func (lf *lifter) seq(id, follow int, loopDepth int) ([]csrc.Stmt, error) {
	var stmts []csrc.Stmt
	lf.depth++
	defer func() { lf.depth-- }()
	if lf.depth > 4096 {
		return nil, fmt.Errorf("structuring recursion limit exceeded: %w", ErrStructure)
	}

	cur := id
	steps := 0
	for cur != follow && cur != -1 {
		steps++
		if steps > 4096 {
			return nil, fmt.Errorf("structuring step limit exceeded: %w", ErrStructure)
		}
		// Re-reaching the innermost loop's header or exit from inside its
		// body is a continue or break, not a region to re-structure.
		if lc := lf.currentLoop; lc != nil {
			if cur == lc.header && follow != lc.header {
				stmts = append(stmts, &csrc.Continue{})
				return stmts, nil
			}
			if cur == lc.exit && follow != lc.exit {
				stmts = append(stmts, &csrc.Break{})
				return stmts, nil
			}
		}
		// Loop headers become while statements.
		if lf.g.isLoopHeader(cur) && loopDepth >= 0 {
			ws, exit, err := lf.liftLoop(cur)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, ws...)
			cur = exit
			continue
		}
		b := lf.g.Blocks[cur]
		stmts = append(stmts, lf.emitInstrs(b)...)
		term := b.Term()
		switch term.Op {
		case compile.OpRet:
			stmts = append(stmts, lf.liftReturn(term))
			return stmts, nil
		case compile.OpBr:
			cur = lf.g.Succs[cur][0]
		case compile.OpCondBr:
			condStmts, join, err := lf.liftCondBr(cur, term, loopDepth)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, condStmts...)
			cur = join
		default:
			return nil, fmt.Errorf("block b%d has no terminator: %w", b.ID, ErrStructure)
		}
	}
	return stmts, nil
}

// liftCondBr structures a conditional terminator: it selects the join
// point, structures both arms, and returns the statements plus the block
// to continue from. Shared by seq and liftLoop (whose headers may
// themselves end in in-loop conditionals).
func (lf *lifter) liftCondBr(cur int, term compile.Instr, loopDepth int) ([]csrc.Stmt, int, error) {
	then, els := lf.g.Succs[cur][0], lf.g.Succs[cur][1]
	join := lf.g.ipdom[cur]
	// When one arm can return early, the post-dominator degenerates to the
	// virtual exit. Pick the arm the other arm flows into as the join —
	// and when the arms are disjoint (both return), pick the else arm,
	// emitting the terminating then arm inline — so no region is ever
	// emitted twice.
	if join == -1 {
		if lf.g.reachable(els, then, cur) && !lf.g.reachable(then, els, cur) {
			join = then
		} else {
			join = els
		}
	}
	cond := lf.operand(term.A)
	thenStmts, err := lf.branch(then, join, loopDepth)
	if err != nil {
		return nil, 0, err
	}
	elseStmts, err := lf.branch(els, join, loopDepth)
	if err != nil {
		return nil, 0, err
	}
	var stmts []csrc.Stmt
	// Hex-Rays flattens `if (c) return X; else {...}` into an early-exit
	// if followed by straight-line code.
	if len(thenStmts) > 0 && len(elseStmts) > 0 && endsTerminal(thenStmts) {
		stmts = append(stmts, makeIf(cond, thenStmts, nil))
		stmts = append(stmts, elseStmts...)
	} else {
		stmts = append(stmts, makeIf(cond, thenStmts, elseStmts))
	}
	return stmts, join, nil
}

// branch structures one arm of a conditional, mapping loop-header and
// loop-exit targets to continue/break.
func (lf *lifter) branch(target, join, loopDepth int) ([]csrc.Stmt, error) {
	if target == join {
		return nil, nil
	}
	if lc := lf.currentLoop; lc != nil {
		if target == lc.header && join != lc.header {
			return []csrc.Stmt{&csrc.Continue{}}, nil
		}
		if target == lc.exit && join != lc.exit {
			return []csrc.Stmt{&csrc.Break{}}, nil
		}
	}
	return lf.seq(target, join, loopDepth)
}

// loopCtx tracks the innermost loop during structuring.
type loopCtx struct {
	header, exit int
	outer        *loopCtx
}

// liftLoop structures the natural loop headed at header, returning the
// loop statement(s) and the block to continue from.
func (lf *lifter) liftLoop(header int) ([]csrc.Stmt, int, error) {
	body, exit, hasCond := lf.g.loopExit(header)
	hb := lf.g.Blocks[header]
	headerStmts := lf.emitInstrs(hb)

	if !hasCond {
		// while(1) shape: either the header unconditionally continues into
		// the body, or it ends in a conditional whose both arms stay inside
		// the loop (e.g. a ternary at the top of a do-while body). If the
		// loop set has exactly one outside successor, that block is the
		// structured exit — edges to it become breaks and structuring
		// resumes there, keeping enclosing loop contexts intact.
		term := hb.Term()
		structExit := -1
		set := lf.g.loops[header]
		outs := map[int]bool{}
		set.ForEach(func(i int) {
			for _, s := range lf.g.Succs[i] {
				if !set.Has(s) {
					outs[s] = true
				}
			}
		})
		if len(outs) == 1 {
			for x := range outs {
				structExit = x
			}
		}
		saved := lf.currentLoop
		lf.currentLoop = &loopCtx{header: header, exit: structExit, outer: saved}
		var bodyStmts []csrc.Stmt
		var err error
		switch term.Op {
		case compile.OpCondBr:
			var condStmts []csrc.Stmt
			var join int
			condStmts, join, err = lf.liftCondBr(header, term, 1)
			if err == nil {
				var rest []csrc.Stmt
				rest, err = lf.seq(join, header, 1)
				bodyStmts = append(condStmts, rest...)
			}
		case compile.OpBr:
			bodyStmts, err = lf.seq(lf.g.Succs[header][0], header, 1)
		default:
			err = fmt.Errorf("loop header b%d ends in %v: %w", hb.ID, term.Op, ErrStructure)
		}
		lf.currentLoop = saved
		if err != nil {
			return nil, 0, err
		}
		w := &csrc.While{Cond: &csrc.IntLit{Text: "1"}, Body: &csrc.Block{Stmts: append(headerStmts, bodyStmts...)}}
		return []csrc.Stmt{w}, structExit, nil
	}

	cond := lf.operand(hb.Term().A)
	saved := lf.currentLoop
	lf.currentLoop = &loopCtx{header: header, exit: exit, outer: saved}
	bodyStmts, err := lf.seq(body, header, 1)
	lf.currentLoop = saved
	if err != nil {
		return nil, 0, err
	}

	if len(headerStmts) == 0 {
		return []csrc.Stmt{&csrc.While{Cond: cond, Body: &csrc.Block{Stmts: bodyStmts}}}, exit, nil
	}
	// The condition needs per-iteration statements: render the
	// while(1){...; if(!cond) break; ...} shape Hex-Rays falls back to.
	inner := append([]csrc.Stmt{}, headerStmts...)
	inner = append(inner, &csrc.If{Cond: negate(cond), Then: &csrc.Block{Stmts: []csrc.Stmt{&csrc.Break{}}}})
	inner = append(inner, bodyStmts...)
	w := &csrc.While{Cond: &csrc.IntLit{Text: "1"}, Body: &csrc.Block{Stmts: inner}}
	return []csrc.Stmt{w}, exit, nil
}

func (lf *lifter) liftReturn(term compile.Instr) csrc.Stmt {
	if term.A.Kind == compile.OperandNone {
		return &csrc.Return{}
	}
	if term.A.Kind == compile.OperandConst && lf.fn.RetWidth == 8 {
		return &csrc.Return{X: constLL(term.A.Const)}
	}
	return &csrc.Return{X: lf.operand(term.A)}
}

// makeIf assembles an if statement, negating when only the else arm has
// code.
func makeIf(cond csrc.Expr, thenStmts, elseStmts []csrc.Stmt) csrc.Stmt {
	if len(thenStmts) == 0 && len(elseStmts) > 0 {
		return &csrc.If{Cond: negate(cond), Then: &csrc.Block{Stmts: elseStmts}}
	}
	out := &csrc.If{Cond: cond, Then: &csrc.Block{Stmts: thenStmts}}
	if len(elseStmts) > 0 {
		out.Else = &csrc.Block{Stmts: elseStmts}
	}
	return out
}

package analysis

import (
	"context"
	"fmt"

	"decompstudy/internal/compile"
	"decompstudy/internal/obs"
)

// validWidths are the legal Load/Store byte widths.
var validWidths = map[int]bool{1: true, 2: true, 4: true, 8: true}

// Verify checks that a function's IR is well-formed and returns every
// finding as a structured diagnostic. Error-severity findings mean the
// IR must not be fed to the decompiler or interpreter:
//
//   - verify.no-blocks        function has no blocks (error)
//   - verify.duplicate-block  two blocks share an ID (error)
//   - verify.empty-block      block has no instructions, so no terminator (error)
//   - verify.terminator       last instruction is not ret/br/condbr (error)
//   - verify.stray-terminator terminator before the end of a block (error)
//   - verify.branch-target    br/condbr target does not exist (error)
//   - verify.param-count      NParams exceeds NTemps or is negative (error)
//   - verify.temp-range       Dst or temp operand outside [0, NTemps) (error)
//   - verify.operand          operand kind invalid for its opcode slot (error)
//   - verify.width            load/store width outside {1,2,4,8} (error)
//   - verify.dst              register-writing opcode without a Dst (error)
//   - verify.def-before-use   temp read but never defined (error), or not
//     definitely assigned along every path to the read (warning)
//   - verify.ret-value        ret value disagrees with RetWidth (warning)
//   - verify.unreachable      block unreachable from entry (warning)
//
// Verify never panics, whatever the IR looks like; dataflow-dependent
// checks degrade gracefully on structurally broken functions.
func Verify(fn *compile.Func) []Diag {
	return VerifyCtx(context.Background(), fn)
}

// VerifyCtx is Verify with telemetry: a analysis.Verify span plus
// finding counters when the context carries an obs handle.
func VerifyCtx(ctx context.Context, fn *compile.Func) []Diag {
	_, sp := obs.StartSpan(ctx, "analysis.Verify", obs.KV("func", fn.Name))
	defer sp.End()
	v := &verifier{fn: fn}
	v.run()
	obs.AddCount(ctx, "analysis.verify.funcs", 1)
	obs.AddCount(ctx, "analysis.verify.errors", int64(CountSev(v.diags, SevError)))
	obs.AddCount(ctx, "analysis.verify.warnings", int64(CountSev(v.diags, SevWarn)))
	sp.SetAttr("diags", len(v.diags))
	return v.diags
}

// VerifyObject verifies every function in a compiled object.
func VerifyObject(ctx context.Context, obj *compile.Object) []Diag {
	var out []Diag
	for _, fn := range obj.Funcs {
		out = append(out, VerifyCtx(ctx, fn)...)
	}
	return out
}

type verifier struct {
	fn    *compile.Func
	diags []Diag
	// eagerReach makes checkDefBeforeUse solve reaching definitions up
	// front rather than on the first read that is not definitely
	// assigned; tests use it as the reference for the lazy path.
	eagerReach bool
}

func (v *verifier) add(sev Severity, check string, block, instr int, format string, args ...any) {
	v.diags = append(v.diags, Diag{
		Check: check, Sev: sev, Func: v.fn.Name,
		Block: block, Instr: instr, Msg: fmt.Sprintf(format, args...),
	})
}

func (v *verifier) run() {
	fn := v.fn
	if fn.NParams < 0 || fn.NParams > fn.NTemps {
		v.add(SevError, "verify.param-count", -1, -1,
			"%d params but only %d temps", fn.NParams, fn.NTemps)
	}
	if len(fn.Blocks) == 0 {
		v.add(SevError, "verify.no-blocks", -1, -1, "function has no blocks")
		return
	}

	ids := map[int]bool{}
	for _, b := range fn.Blocks {
		if ids[b.ID] {
			v.add(SevError, "verify.duplicate-block", b.ID, -1, "duplicate block ID b%d", b.ID)
		}
		ids[b.ID] = true
	}

	structuralOK := true
	for _, b := range fn.Blocks {
		if len(b.Instrs) == 0 {
			// Block.Term() returns a zero Instr here, which every caller
			// would misread as "no terminator, no successors" — flag it
			// explicitly instead of letting decomp fail opaquely.
			v.add(SevError, "verify.empty-block", b.ID, -1, "empty block (no terminator)")
			structuralOK = false
			continue
		}
		for ii, in := range b.Instrs {
			last := ii == len(b.Instrs)-1
			if isTerminator(in.Op) && !last {
				v.add(SevError, "verify.stray-terminator", b.ID, ii,
					"%s terminates the block early (%d trailing instruction(s))", in.Op, len(b.Instrs)-1-ii)
				structuralOK = false
			}
			if last && !isTerminator(in.Op) {
				v.add(SevError, "verify.terminator", b.ID, ii,
					"block falls through: last instruction is %s, want ret/br/condbr", in.Op)
				structuralOK = false
			}
			v.checkInstr(b, ii, in, ids)
		}
	}

	g := NewGraph(fn)
	for i, b := range fn.Blocks {
		if !g.Reach.Has(i) {
			v.add(SevWarn, "verify.unreachable", b.ID, -1, "block unreachable from entry")
		}
	}

	// Definition checks need a sane graph; on structurally broken IR the
	// earlier diagnostics already explain the problem.
	if !structuralOK {
		return
	}
	v.checkDefBeforeUse(g)
}

// checkDefBeforeUse reports reads of temps with no definition anywhere
// (error), and reads not definitely assigned along every path (warning —
// legitimate for source like "int x; if (c) x = 1; use(x);", but worth
// surfacing since the decompiler will render exactly that hazard).
// Reaching definitions only tell the two apart, so they are solved on
// the first such read; clean IR never needs them.
func (v *verifier) checkDefBeforeUse(g *Graph) {
	var reach *ReachInfo
	if v.eagerReach {
		reach = ReachingDefs(g)
	}
	assigned := DefiniteAssignment(g)
	nt := g.Fn.NTemps
	var scratch []int
	for bi, b := range g.Blocks {
		if !g.Reach.Has(bi) {
			continue
		}
		cur := assigned.In[bi].Clone()
		for ii, in := range b.Instrs {
			scratch = usedTemps(in, scratch[:0])
			for _, t := range scratch {
				if t < 0 || t >= nt {
					continue // verify.temp-range already fired
				}
				if t < g.Fn.NParams || cur.Has(t) {
					continue
				}
				if reach == nil {
					reach = ReachingDefs(g)
				}
				if len(reach.SitesOf(t)) == 0 {
					v.add(SevError, "verify.def-before-use", b.ID, ii,
						"t%d is read but never defined", t)
				} else {
					v.add(SevWarn, "verify.def-before-use", b.ID, ii,
						"t%d may be read before assignment on some path", t)
				}
			}
			if t := defTemp(in); t >= 0 && t < nt {
				cur.Set(t)
			}
		}
	}
}

// operand slot expectations per opcode.
type slotRule int

const (
	slotNone  slotRule = iota // operand must be absent
	slotValue                 // temp, const, or symbol
	slotAny                   // value or absent
)

func (v *verifier) checkOperand(b *compile.Block, ii int, slot string, o compile.Operand, rule slotRule) {
	switch rule {
	case slotNone:
		if o.Kind != compile.OperandNone {
			v.add(SevError, "verify.operand", b.ID, ii, "%s operand must be absent, got %s", slot, o)
		}
	case slotValue:
		if o.Kind == compile.OperandNone {
			v.add(SevError, "verify.operand", b.ID, ii, "%s operand missing", slot)
		}
	}
	switch o.Kind {
	case compile.OperandNone, compile.OperandConst, compile.OperandSym:
	case compile.OperandTemp:
		if o.Temp < 0 || o.Temp >= v.fn.NTemps {
			v.add(SevError, "verify.temp-range", b.ID, ii,
				"%s operand t%d outside [0, %d)", slot, o.Temp, v.fn.NTemps)
		}
	default:
		v.add(SevError, "verify.operand", b.ID, ii, "%s operand has invalid kind %d", slot, int(o.Kind))
	}
}

func (v *verifier) checkTarget(b *compile.Block, ii int, which string, id int, ids map[int]bool) {
	if !ids[id] {
		v.add(SevError, "verify.branch-target", b.ID, ii, "%s target b%d does not exist", which, id)
	}
}

func (v *verifier) checkInstr(b *compile.Block, ii int, in compile.Instr, ids map[int]bool) {
	wantsDst := false
	switch in.Op {
	case compile.OpMov, compile.OpNot, compile.OpNeg, compile.OpLNot:
		wantsDst = true
		v.checkOperand(b, ii, "A", in.A, slotValue)
		v.checkOperand(b, ii, "B", in.B, slotNone)
	case compile.OpAdd, compile.OpSub, compile.OpMul, compile.OpDiv, compile.OpRem,
		compile.OpAnd, compile.OpOr, compile.OpXor, compile.OpShl, compile.OpShr,
		compile.OpCmpEQ, compile.OpCmpNE, compile.OpCmpLT, compile.OpCmpLE,
		compile.OpCmpGT, compile.OpCmpGE:
		wantsDst = true
		v.checkOperand(b, ii, "A", in.A, slotValue)
		v.checkOperand(b, ii, "B", in.B, slotValue)
	case compile.OpLoad:
		wantsDst = true
		v.checkOperand(b, ii, "address", in.A, slotValue)
		v.checkOperand(b, ii, "B", in.B, slotNone)
		if !validWidths[in.Width] {
			v.add(SevError, "verify.width", b.ID, ii, "load width %d not in {1,2,4,8}", in.Width)
		}
	case compile.OpStore:
		v.checkOperand(b, ii, "address", in.A, slotValue)
		v.checkOperand(b, ii, "value", in.B, slotValue)
		if !validWidths[in.Width] {
			v.add(SevError, "verify.width", b.ID, ii, "store width %d not in {1,2,4,8}", in.Width)
		}
	case compile.OpCall:
		if in.Callee.Kind != compile.OperandSym && in.Callee.Kind != compile.OperandTemp {
			v.add(SevError, "verify.operand", b.ID, ii, "call callee must be a symbol or temp, got %s", in.Callee)
		} else {
			v.checkOperand(b, ii, "callee", in.Callee, slotValue)
		}
		for ai, a := range in.Args {
			v.checkOperand(b, ii, fmt.Sprintf("arg%d", ai), a, slotValue)
		}
		if in.Dst >= v.fn.NTemps {
			v.add(SevError, "verify.temp-range", b.ID, ii, "call result t%d outside [0, %d)", in.Dst, v.fn.NTemps)
		}
	case compile.OpRet:
		v.checkOperand(b, ii, "A", in.A, slotAny)
		v.checkOperand(b, ii, "B", in.B, slotNone)
		if v.fn.RetWidth == 0 && in.A.Kind != compile.OperandNone {
			v.add(SevWarn, "verify.ret-value", b.ID, ii, "void function returns a value")
		}
		if v.fn.RetWidth > 0 && in.A.Kind == compile.OperandNone {
			v.add(SevWarn, "verify.ret-value", b.ID, ii,
				"function with %d-byte result returns no value", v.fn.RetWidth)
		}
	case compile.OpBr:
		v.checkOperand(b, ii, "A", in.A, slotNone)
		v.checkOperand(b, ii, "B", in.B, slotNone)
		v.checkTarget(b, ii, "branch", in.Target, ids)
	case compile.OpCondBr:
		v.checkOperand(b, ii, "condition", in.A, slotValue)
		v.checkOperand(b, ii, "B", in.B, slotNone)
		v.checkTarget(b, ii, "true", in.Target, ids)
		v.checkTarget(b, ii, "false", in.Else, ids)
	default:
		v.add(SevError, "verify.operand", b.ID, ii, "unknown opcode %d", int(in.Op))
		return
	}
	if wantsDst {
		switch {
		case in.Dst < 0:
			v.add(SevError, "verify.dst", b.ID, ii, "%s must define a temp, Dst is %d", in.Op, in.Dst)
		case in.Dst >= v.fn.NTemps:
			v.add(SevError, "verify.temp-range", b.ID, ii, "destination t%d outside [0, %d)", in.Dst, v.fn.NTemps)
		}
	}
}

func isTerminator(op compile.Opcode) bool {
	switch op {
	case compile.OpRet, compile.OpBr, compile.OpCondBr:
		return true
	}
	return false
}

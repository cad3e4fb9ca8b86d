package compile

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"decompstudy/internal/csrc"
	"decompstudy/internal/fault"
	"decompstudy/internal/obs"
)

// Compile lowers every function in the file to IR.
func Compile(file *csrc.File) (*Object, error) {
	return CompileCtx(context.Background(), file)
}

// CompileCtx is Compile with telemetry: a compile.Compile span plus
// call/function counters when the context carries an obs handle.
func CompileCtx(ctx context.Context, file *csrc.File) (*Object, error) {
	_, sp := obs.StartSpan(ctx, "compile.Compile", obs.KV("functions", len(file.Functions)))
	defer sp.End()
	if err := fault.Check(ctx, fault.CompileLower); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrExec, err)
	}
	obs.AddCount(ctx, "compile.calls", 1)
	obs.AddCount(ctx, "compile.functions", int64(len(file.Functions)))
	obj := &Object{}
	for _, fn := range file.Functions {
		lf, err := lowerFunc(file, fn)
		if err != nil {
			return nil, fmt.Errorf("compile: function %s: %w", fn.Name, err)
		}
		obj.Funcs = append(obj.Funcs, lf)
	}
	return obj, nil
}

// typeInfo is the width/signedness summary a csrc type collapses to.
type typeInfo struct {
	width   int
	signed  bool
	pointee int // element width for pointers; 0 otherwise
	funcPtr bool
}

// resolveType normalizes typedefs to their underlying type.
func resolveType(file *csrc.File, t *csrc.Type) *csrc.Type {
	for t != nil && t.Kind == csrc.TypeNamed {
		under, ok := file.Typedefs[t.Name]
		if !ok || under == t {
			return t
		}
		t = under
	}
	return t
}

var baseWidths = map[string]typeInfo{
	"void":               {width: 0, signed: true},
	"char":               {width: 1, signed: true},
	"signed char":        {width: 1, signed: true},
	"unsigned char":      {width: 1},
	"short":              {width: 2, signed: true},
	"unsigned short":     {width: 2},
	"int":                {width: 4, signed: true},
	"signed":             {width: 4, signed: true},
	"signed int":         {width: 4, signed: true},
	"unsigned":           {width: 4},
	"unsigned int":       {width: 4},
	"long":               {width: 8, signed: true},
	"long int":           {width: 8, signed: true},
	"unsigned long":      {width: 8},
	"long long":          {width: 8, signed: true},
	"unsigned long long": {width: 8},
	"size_t":             {width: 8},
	"ssize_t":            {width: 8, signed: true},
	"uint64_t":           {width: 8},
	"int64_t":            {width: 8, signed: true},
	"uint32_t":           {width: 4},
	"int32_t":            {width: 4, signed: true},
	"uint8_t":            {width: 1},
	"intptr_t":           {width: 8, signed: true},
	"bool":               {width: 1},
	"__int64":            {width: 8, signed: true},
	"__int32":            {width: 4, signed: true},
	"__int16":            {width: 2, signed: true},
	"__int8":             {width: 1, signed: true},
	"_QWORD":             {width: 8},
	"_DWORD":             {width: 4},
	"_WORD":              {width: 2},
	"_BYTE":              {width: 1},
}

// typeInfoOf summarizes a csrc type.
func typeInfoOf(file *csrc.File, t *csrc.Type) (typeInfo, error) {
	t = resolveType(file, t)
	if t == nil {
		return typeInfo{}, fmt.Errorf("nil type: %w", ErrUnsupported)
	}
	switch t.Kind {
	case csrc.TypeBase:
		// Normalize keyword order loosely ("unsigned long" etc.).
		if ti, ok := baseWidths[t.Name]; ok {
			return ti, nil
		}
		return typeInfo{}, fmt.Errorf("base type %q: %w", t.Name, ErrUnsupported)
	case csrc.TypeNamed:
		if ti, ok := baseWidths[t.Name]; ok {
			return ti, nil
		}
		// A bare struct-named type used by value: only meaningful behind a
		// pointer in this subset, but give it a width so sizeof works.
		if _, ok := file.Struct(t.Name); ok {
			return typeInfo{width: 8, signed: false}, nil
		}
		return typeInfo{}, fmt.Errorf("named type %q: %w", t.Name, ErrUnsupported)
	case csrc.TypePointer:
		elem := resolveType(file, t.Elem)
		pointee := 8
		if elem != nil {
			if ei, err := typeInfoOf(file, elem); err == nil && ei.width > 0 {
				pointee = ei.width
			}
		}
		return typeInfo{width: 8, pointee: pointee}, nil
	case csrc.TypeFunc:
		return typeInfo{width: 8, funcPtr: true}, nil
	default:
		return typeInfo{}, fmt.Errorf("type kind %d: %w", int(t.Kind), ErrUnsupported)
	}
}

// lowerer carries per-function lowering state.
type lowerer struct {
	file   *csrc.File
	fn     *Func
	blocks []*Block
	cur    *Block
	// scope maps each name to its bindings in the open block scopes,
	// innermost last, so lookup is O(1) however deep the nesting;
	// declared lists the names each open scope bound, for popScope.
	scope    map[string][]binding
	declared [][]string
	types    []typeInfo // temp → type summary
	breaks   []int      // break target stack (block IDs)
	conts    []int      // continue target stack
	done     bool       // current block already terminated
}

func lowerFunc(file *csrc.File, src *csrc.Function) (*Func, error) {
	retTI := typeInfo{}
	if src.Ret != nil {
		var err error
		retTI, err = typeInfoOf(file, src.Ret)
		if err != nil {
			return nil, err
		}
	}
	lo := &lowerer{
		file: file,
		fn: &Func{
			Name:      src.Name,
			NParams:   len(src.Params),
			RetWidth:  retTI.width,
			RetSigned: retTI.signed,
		},
		scope: map[string][]binding{},
	}
	lo.pushScope()
	for _, p := range src.Params {
		ti, err := typeInfoOf(file, p.Type)
		if err != nil {
			return nil, fmt.Errorf("param %s: %w", p.Name, err)
		}
		t := lo.newTemp(ti)
		lo.bind(p.Name, t)
		lo.fn.Symbols = append(lo.fn.Symbols, Symbol{
			Kind: VarParam, OrigName: p.Name, OrigType: p.Type.String(),
			Temp: t, Width: ti.width, Signed: ti.signed, Pointee: ti.pointee,
			IsFuncPtr: ti.funcPtr,
		})
	}
	lo.cur = lo.newBlock()
	if err := lo.stmt(src.Body); err != nil {
		return nil, err
	}
	if !lo.done {
		lo.emit(Instr{Op: OpRet, A: None, Dst: -1})
	}
	lo.fn.Blocks = lo.pruneUnreachable()
	lo.fn.NTemps = len(lo.types)
	return lo.fn, nil
}

// binding is one declaration of a name: the temp it names and the scope
// depth (len(declared)) it was declared at.
type binding struct{ depth, temp int }

func (lo *lowerer) pushScope() { lo.declared = append(lo.declared, nil) }

func (lo *lowerer) popScope() {
	top := len(lo.declared) - 1
	for _, name := range lo.declared[top] {
		b := lo.scope[name]
		lo.scope[name] = b[:len(b)-1]
	}
	lo.declared = lo.declared[:top]
}

func (lo *lowerer) bind(name string, temp int) {
	depth := len(lo.declared)
	if b := lo.scope[name]; len(b) > 0 && b[len(b)-1].depth == depth {
		b[len(b)-1].temp = temp // redeclared in the same scope
		return
	}
	lo.scope[name] = append(lo.scope[name], binding{depth: depth, temp: temp})
	lo.declared[depth-1] = append(lo.declared[depth-1], name)
}

func (lo *lowerer) lookup(name string) (int, bool) {
	if b := lo.scope[name]; len(b) > 0 {
		return b[len(b)-1].temp, true
	}
	return 0, false
}

func (lo *lowerer) newTemp(ti typeInfo) int {
	id := len(lo.types)
	lo.types = append(lo.types, ti)
	return id
}

func (lo *lowerer) newBlock() *Block {
	b := &Block{ID: len(lo.blocks)}
	lo.blocks = append(lo.blocks, b)
	return b
}

// emit appends an instruction to the current block unless it is already
// terminated (unreachable code is dropped).
func (lo *lowerer) emit(in Instr) {
	if lo.done {
		return
	}
	lo.cur.Instrs = append(lo.cur.Instrs, in)
	switch in.Op {
	case OpRet, OpBr, OpCondBr:
		lo.done = true
	}
}

// switchTo makes b the current block.
func (lo *lowerer) switchTo(b *Block) {
	lo.cur = b
	lo.done = false
}

// pruneUnreachable drops blocks not reachable from block 0 and renumbers
// nothing (IDs are stable; decomp follows edges, not slice order). IDs
// are dense — newBlock numbers blocks by position — so lo.blocks[id] is
// the block with that ID.
func (lo *lowerer) pruneUnreachable() []*Block {
	if len(lo.blocks) == 0 {
		return nil
	}
	reach := make([]bool, len(lo.blocks))
	reach[0] = true
	for stack := []int{0}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range lo.blocks[id].Succs() {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	var out []*Block
	for _, b := range lo.blocks {
		if reach[b.ID] {
			out = append(out, b)
		}
	}
	return out
}

// --- statements ---

func (lo *lowerer) stmt(s csrc.Stmt) error {
	switch st := s.(type) {
	case *csrc.Block:
		lo.pushScope()
		defer lo.popScope()
		for _, inner := range st.Stmts {
			if err := lo.stmt(inner); err != nil {
				return err
			}
		}
		return nil
	case *csrc.DeclStmt:
		ti, err := typeInfoOf(lo.file, st.Type)
		if err != nil {
			return fmt.Errorf("declaration %s: %w", st.Name, err)
		}
		t := lo.newTemp(ti)
		lo.bind(st.Name, t)
		lo.fn.Symbols = append(lo.fn.Symbols, Symbol{
			Kind: VarLocal, OrigName: st.Name, OrigType: st.Type.String(),
			Temp: t, Width: ti.width, Signed: ti.signed, Pointee: ti.pointee,
			IsFuncPtr: ti.funcPtr,
		})
		if st.Init != nil {
			v, err := lo.expr(st.Init)
			if err != nil {
				return err
			}
			lo.emit(Instr{Op: OpMov, Dst: t, A: v})
		}
		return nil
	case *csrc.ExprStmt:
		_, err := lo.expr(st.X)
		return err
	case *csrc.If:
		thenB := lo.newBlock()
		elseB := lo.newBlock()
		joinB := lo.newBlock()
		elseTarget := joinB
		if st.Else != nil {
			elseTarget = elseB
		}
		if err := lo.cond(st.Cond, thenB, elseTarget); err != nil {
			return err
		}
		lo.switchTo(thenB)
		if err := lo.stmt(st.Then); err != nil {
			return err
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: joinB.ID})
		if st.Else != nil {
			lo.switchTo(elseB)
			if err := lo.stmt(st.Else); err != nil {
				return err
			}
			lo.emit(Instr{Op: OpBr, Dst: -1, Target: joinB.ID})
		}
		lo.switchTo(joinB)
		return nil
	case *csrc.While:
		head := lo.newBlock()
		body := lo.newBlock()
		exit := lo.newBlock()
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: head.ID})
		lo.switchTo(head)
		if err := lo.cond(st.Cond, body, exit); err != nil {
			return err
		}
		lo.breaks = append(lo.breaks, exit.ID)
		lo.conts = append(lo.conts, head.ID)
		lo.switchTo(body)
		if err := lo.stmt(st.Body); err != nil {
			return err
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: head.ID})
		lo.breaks = lo.breaks[:len(lo.breaks)-1]
		lo.conts = lo.conts[:len(lo.conts)-1]
		lo.switchTo(exit)
		return nil
	case *csrc.For:
		lo.pushScope()
		defer lo.popScope()
		if st.Init != nil {
			if err := lo.stmt(st.Init); err != nil {
				return err
			}
		}
		head := lo.newBlock()
		body := lo.newBlock()
		post := lo.newBlock()
		exit := lo.newBlock()
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: head.ID})
		lo.switchTo(head)
		if st.Cond != nil {
			if err := lo.cond(st.Cond, body, exit); err != nil {
				return err
			}
		} else {
			lo.emit(Instr{Op: OpBr, Dst: -1, Target: body.ID})
		}
		lo.breaks = append(lo.breaks, exit.ID)
		lo.conts = append(lo.conts, post.ID)
		lo.switchTo(body)
		if err := lo.stmt(st.Body); err != nil {
			return err
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: post.ID})
		lo.breaks = lo.breaks[:len(lo.breaks)-1]
		lo.conts = lo.conts[:len(lo.conts)-1]
		lo.switchTo(post)
		if st.Post != nil {
			if _, err := lo.expr(st.Post); err != nil {
				return err
			}
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: head.ID})
		lo.switchTo(exit)
		return nil
	case *csrc.DoWhile:
		body := lo.newBlock()
		condB := lo.newBlock()
		exit := lo.newBlock()
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: body.ID})
		lo.breaks = append(lo.breaks, exit.ID)
		lo.conts = append(lo.conts, condB.ID)
		lo.switchTo(body)
		if err := lo.stmt(st.Body); err != nil {
			return err
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: condB.ID})
		lo.breaks = lo.breaks[:len(lo.breaks)-1]
		lo.conts = lo.conts[:len(lo.conts)-1]
		lo.switchTo(condB)
		if err := lo.cond(st.Cond, body, exit); err != nil {
			return err
		}
		lo.switchTo(exit)
		return nil
	case *csrc.Switch:
		// Evaluate the tag once, then lower to an equality chain. Cases
		// break implicitly; an explicit break targets the switch exit, as
		// in C.
		tag, err := lo.expr(st.Tag)
		if err != nil {
			return err
		}
		// Pin the tag in a temp so repeated comparisons don't re-evaluate
		// side effects.
		tagTemp := lo.newTemp(lo.operandType(tag))
		lo.emit(Instr{Op: OpMov, Dst: tagTemp, A: tag})
		exit := lo.newBlock()
		lo.breaks = append(lo.breaks, exit.ID)
		var defaultCase *csrc.SwitchCase
		for i := range st.Cases {
			if st.Cases[i].Value == nil {
				defaultCase = &st.Cases[i]
			}
		}
		for i := range st.Cases {
			c := &st.Cases[i]
			if c.Value == nil {
				continue
			}
			val, err := lo.expr(c.Value)
			if err != nil {
				return err
			}
			cmp := lo.newTemp(typeInfo{width: 4, signed: true})
			lo.emit(Instr{Op: OpCmpEQ, Dst: cmp, A: Temp(tagTemp), B: val})
			bodyB := lo.newBlock()
			nextB := lo.newBlock()
			lo.emit(Instr{Op: OpCondBr, Dst: -1, A: Temp(cmp), Target: bodyB.ID, Else: nextB.ID})
			lo.switchTo(bodyB)
			for _, inner := range c.Stmts {
				if err := lo.stmt(inner); err != nil {
					return err
				}
			}
			lo.emit(Instr{Op: OpBr, Dst: -1, Target: exit.ID})
			lo.switchTo(nextB)
		}
		if defaultCase != nil {
			for _, inner := range defaultCase.Stmts {
				if err := lo.stmt(inner); err != nil {
					return err
				}
			}
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: exit.ID})
		lo.breaks = lo.breaks[:len(lo.breaks)-1]
		lo.switchTo(exit)
		return nil
	case *csrc.Return:
		if st.X == nil {
			lo.emit(Instr{Op: OpRet, Dst: -1, A: None})
			return nil
		}
		v, err := lo.expr(st.X)
		if err != nil {
			return err
		}
		lo.emit(Instr{Op: OpRet, Dst: -1, A: v})
		return nil
	case *csrc.Break:
		if len(lo.breaks) == 0 {
			return fmt.Errorf("break outside loop: %w", ErrUnsupported)
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: lo.breaks[len(lo.breaks)-1]})
		return nil
	case *csrc.Continue:
		if len(lo.conts) == 0 {
			return fmt.Errorf("continue outside loop: %w", ErrUnsupported)
		}
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: lo.conts[len(lo.conts)-1]})
		return nil
	default:
		return fmt.Errorf("statement %T: %w", s, ErrUnsupported)
	}
}

// cond lowers a boolean expression in condition context, branching to
// trueB or falseB. Short-circuit operators become control flow with no
// materialized temps.
func (lo *lowerer) cond(e csrc.Expr, trueB, falseB *Block) error {
	switch x := e.(type) {
	case *csrc.Binary:
		switch x.Op {
		case "&&":
			mid := lo.newBlock()
			if err := lo.cond(x.L, mid, falseB); err != nil {
				return err
			}
			lo.switchTo(mid)
			return lo.cond(x.R, trueB, falseB)
		case "||":
			mid := lo.newBlock()
			if err := lo.cond(x.L, trueB, mid); err != nil {
				return err
			}
			lo.switchTo(mid)
			return lo.cond(x.R, trueB, falseB)
		}
	case *csrc.Unary:
		if x.Op == "!" {
			return lo.cond(x.X, falseB, trueB)
		}
	}
	v, err := lo.expr(e)
	if err != nil {
		return err
	}
	lo.emit(Instr{Op: OpCondBr, Dst: -1, A: v, Target: trueB.ID, Else: falseB.ID})
	return nil
}

// --- expressions ---

var binOps = map[string]Opcode{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpRem,
	"&": OpAnd, "|": OpOr, "^": OpXor, "<<": OpShl, ">>": OpShr,
	"==": OpCmpEQ, "!=": OpCmpNE, "<": OpCmpLT, "<=": OpCmpLE,
	">": OpCmpGT, ">=": OpCmpGE,
}

// expr lowers an expression to an operand carrying its value.
func (lo *lowerer) expr(e csrc.Expr) (Operand, error) {
	switch x := e.(type) {
	case *csrc.Ident:
		if t, ok := lo.lookup(x.Name); ok {
			return Temp(t), nil
		}
		// Unbound identifier: a function or global symbol.
		return Sym(x.Name), nil
	case *csrc.IntLit:
		v, err := parseIntLit(x.Text)
		if err != nil {
			return None, err
		}
		return Const(v), nil
	case *csrc.CharLit:
		return Const(charValue(x.Value)), nil
	case *csrc.StrLit:
		return Sym("\"" + x.Value + "\""), nil
	case *csrc.Unary:
		return lo.unary(x)
	case *csrc.Postfix:
		// x++/x-- on a named variable: save old value, update.
		t, ok := lo.lvalTemp(x.X)
		if !ok {
			addr, width, err := lo.addr(x.X)
			if err != nil {
				return None, err
			}
			old := lo.newTemp(typeInfo{width: width, signed: true})
			lo.emit(Instr{Op: OpLoad, Dst: old, A: addr, Width: width})
			upd := lo.newTemp(typeInfo{width: width, signed: true})
			op := OpAdd
			if x.Op == "--" {
				op = OpSub
			}
			lo.emit(Instr{Op: op, Dst: upd, A: Temp(old), B: Const(1)})
			lo.emit(Instr{Op: OpStore, Dst: -1, A: addr, B: Temp(upd), Width: width})
			return Temp(old), nil
		}
		old := lo.newTemp(lo.types[t])
		lo.emit(Instr{Op: OpMov, Dst: old, A: Temp(t)})
		op := OpAdd
		if x.Op == "--" {
			op = OpSub
		}
		lo.emit(Instr{Op: op, Dst: t, A: Temp(t), B: Const(1)})
		return Temp(old), nil
	case *csrc.Binary:
		if x.Op == "&&" || x.Op == "||" {
			return lo.shortCircuitValue(x)
		}
		l, err := lo.expr(x.L)
		if err != nil {
			return None, err
		}
		r, err := lo.expr(x.R)
		if err != nil {
			return None, err
		}
		// Pointer arithmetic scaling: ptr + int scales by pointee width.
		if x.Op == "+" || x.Op == "-" {
			l, r = lo.scalePointerArith(x.Op, l, r)
		}
		dst := lo.newTemp(lo.resultType(x.Op, l, r))
		lo.emit(Instr{Op: binOps[x.Op], Dst: dst, A: l, B: r})
		return Temp(dst), nil
	case *csrc.Assign:
		return lo.assign(x)
	case *csrc.Ternary:
		thenB := lo.newBlock()
		elseB := lo.newBlock()
		joinB := lo.newBlock()
		result := lo.newTemp(typeInfo{width: 8, signed: true})
		if err := lo.cond(x.Cond, thenB, elseB); err != nil {
			return None, err
		}
		lo.switchTo(thenB)
		tv, err := lo.expr(x.Then)
		if err != nil {
			return None, err
		}
		lo.emit(Instr{Op: OpMov, Dst: result, A: tv})
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: joinB.ID})
		lo.switchTo(elseB)
		ev, err := lo.expr(x.Else)
		if err != nil {
			return None, err
		}
		lo.emit(Instr{Op: OpMov, Dst: result, A: ev})
		lo.emit(Instr{Op: OpBr, Dst: -1, Target: joinB.ID})
		lo.switchTo(joinB)
		return Temp(result), nil
	case *csrc.Call:
		var callee Operand
		switch fun := x.Fun.(type) {
		case *csrc.Ident:
			if t, ok := lo.lookup(fun.Name); ok {
				callee = Temp(t) // call through function pointer variable
			} else {
				callee = Sym(fun.Name)
			}
		default:
			v, err := lo.expr(x.Fun)
			if err != nil {
				return None, err
			}
			callee = v
		}
		args := make([]Operand, len(x.Args))
		for i, a := range x.Args {
			v, err := lo.expr(a)
			if err != nil {
				return None, err
			}
			args[i] = v
		}
		dst := lo.newTemp(typeInfo{width: 8, signed: true})
		lo.emit(Instr{Op: OpCall, Dst: dst, Callee: callee, Args: args})
		return Temp(dst), nil
	case *csrc.Index, *csrc.Member:
		addr, width, err := lo.addr(e)
		if err != nil {
			return None, err
		}
		ti := typeInfo{width: width, signed: true}
		// Loads of pointer-typed fields keep their pointee width so later
		// pointer arithmetic scales correctly.
		if m, ok := e.(*csrc.Member); ok {
			if pw := lo.fieldPointee(m); pw > 0 {
				ti.pointee = pw
			}
		}
		dst := lo.newTemp(ti)
		lo.emit(Instr{Op: OpLoad, Dst: dst, A: addr, Width: width})
		return Temp(dst), nil
	case *csrc.Cast:
		// Casts carry no code in this IR; value passes through with the
		// cast's width if it narrows a load elsewhere.
		return lo.expr(x.X)
	case *csrc.SizeofType:
		t := resolveType(lo.file, x.T)
		if t.Kind == csrc.TypeNamed {
			if s, ok := lo.file.Struct(t.Name); ok {
				return Const(int64(s.Size())), nil
			}
		}
		ti, err := typeInfoOf(lo.file, x.T)
		if err != nil {
			return None, err
		}
		return Const(int64(ti.width)), nil
	default:
		return None, fmt.Errorf("expression %T: %w", e, ErrUnsupported)
	}
}

func (lo *lowerer) unary(x *csrc.Unary) (Operand, error) {
	switch x.Op {
	case "-", "~", "!":
		v, err := lo.expr(x.X)
		if err != nil {
			return None, err
		}
		if v.Kind == OperandConst && x.Op == "-" {
			return Const(-v.Const), nil
		}
		op := map[string]Opcode{"-": OpNeg, "~": OpNot, "!": OpLNot}[x.Op]
		dst := lo.newTemp(typeInfo{width: 8, signed: true})
		lo.emit(Instr{Op: op, Dst: dst, A: v})
		return Temp(dst), nil
	case "*":
		addr, err := lo.exprAsAddr(x.X)
		if err != nil {
			return None, err
		}
		width := lo.pointeeWidth(x.X)
		dst := lo.newTemp(typeInfo{width: width, signed: true})
		lo.emit(Instr{Op: OpLoad, Dst: dst, A: addr, Width: width})
		return Temp(dst), nil
	case "&":
		addr, _, err := lo.addr(x.X)
		if err != nil {
			return None, err
		}
		return addr, nil
	case "++", "--":
		if t, ok := lo.lvalTemp(x.X); ok {
			op := OpAdd
			if x.Op == "--" {
				op = OpSub
			}
			lo.emit(Instr{Op: op, Dst: t, A: Temp(t), B: Const(1)})
			return Temp(t), nil
		}
		addr, width, err := lo.addr(x.X)
		if err != nil {
			return None, err
		}
		old := lo.newTemp(typeInfo{width: width, signed: true})
		lo.emit(Instr{Op: OpLoad, Dst: old, A: addr, Width: width})
		upd := lo.newTemp(typeInfo{width: width, signed: true})
		op := OpAdd
		if x.Op == "--" {
			op = OpSub
		}
		lo.emit(Instr{Op: op, Dst: upd, A: Temp(old), B: Const(1)})
		lo.emit(Instr{Op: OpStore, Dst: -1, A: addr, B: Temp(upd), Width: width})
		return Temp(upd), nil
	default:
		return None, fmt.Errorf("unary %q: %w", x.Op, ErrUnsupported)
	}
}

// shortCircuitValue materializes && / || used in value context.
func (lo *lowerer) shortCircuitValue(x *csrc.Binary) (Operand, error) {
	result := lo.newTemp(typeInfo{width: 4, signed: true})
	trueB := lo.newBlock()
	falseB := lo.newBlock()
	joinB := lo.newBlock()
	if err := lo.cond(x, trueB, falseB); err != nil {
		return None, err
	}
	lo.switchTo(trueB)
	lo.emit(Instr{Op: OpMov, Dst: result, A: Const(1)})
	lo.emit(Instr{Op: OpBr, Dst: -1, Target: joinB.ID})
	lo.switchTo(falseB)
	lo.emit(Instr{Op: OpMov, Dst: result, A: Const(0)})
	lo.emit(Instr{Op: OpBr, Dst: -1, Target: joinB.ID})
	lo.switchTo(joinB)
	return Temp(result), nil
}

func (lo *lowerer) assign(x *csrc.Assign) (Operand, error) {
	// Simple variable target.
	if t, ok := lo.lvalTemp(x.L); ok {
		r, err := lo.expr(x.R)
		if err != nil {
			return None, err
		}
		if x.Op == "=" {
			lo.emit(Instr{Op: OpMov, Dst: t, A: r})
			return Temp(t), nil
		}
		op, ok := binOps[strings.TrimSuffix(x.Op, "=")]
		if !ok {
			return None, fmt.Errorf("assignment op %q: %w", x.Op, ErrUnsupported)
		}
		lo.emit(Instr{Op: op, Dst: t, A: Temp(t), B: r})
		return Temp(t), nil
	}
	// Memory target.
	addr, width, err := lo.addr(x.L)
	if err != nil {
		return None, err
	}
	r, err := lo.expr(x.R)
	if err != nil {
		return None, err
	}
	if x.Op == "=" {
		lo.emit(Instr{Op: OpStore, Dst: -1, A: addr, B: r, Width: width})
		return r, nil
	}
	op, ok := binOps[strings.TrimSuffix(x.Op, "=")]
	if !ok {
		return None, fmt.Errorf("assignment op %q: %w", x.Op, ErrUnsupported)
	}
	old := lo.newTemp(typeInfo{width: width, signed: true})
	lo.emit(Instr{Op: OpLoad, Dst: old, A: addr, Width: width})
	upd := lo.newTemp(typeInfo{width: width, signed: true})
	lo.emit(Instr{Op: op, Dst: upd, A: Temp(old), B: r})
	lo.emit(Instr{Op: OpStore, Dst: -1, A: addr, B: Temp(upd), Width: width})
	return Temp(upd), nil
}

// lvalTemp returns the temp for a plain variable lvalue, unwrapping casts.
func (lo *lowerer) lvalTemp(e csrc.Expr) (int, bool) {
	for {
		if c, ok := e.(*csrc.Cast); ok {
			e = c.X
			continue
		}
		break
	}
	if id, ok := e.(*csrc.Ident); ok {
		if t, found := lo.lookup(id.Name); found {
			return t, true
		}
	}
	return 0, false
}

// addr lowers an lvalue expression to (address operand, access width).
func (lo *lowerer) addr(e csrc.Expr) (Operand, int, error) {
	switch x := e.(type) {
	case *csrc.Member:
		if !x.Arrow {
			return None, 0, fmt.Errorf("non-arrow member access: %w", ErrUnsupported)
		}
		base, err := lo.expr(x.X)
		if err != nil {
			return None, 0, err
		}
		sd, fieldWidth, off, err := lo.fieldOf(x)
		if err != nil {
			return None, 0, err
		}
		_ = sd
		if off == 0 {
			return base, fieldWidth, nil
		}
		dst := lo.newTemp(typeInfo{width: 8})
		lo.emit(Instr{Op: OpAdd, Dst: dst, A: base, B: Const(int64(off))})
		return Temp(dst), fieldWidth, nil
	case *csrc.Index:
		base, err := lo.expr(x.X)
		if err != nil {
			return None, 0, err
		}
		idx, err := lo.expr(x.I)
		if err != nil {
			return None, 0, err
		}
		width := lo.pointeeWidth(x.X)
		var offset Operand
		if width == 1 {
			offset = idx
		} else {
			scaled := lo.newTemp(typeInfo{width: 8})
			lo.emit(Instr{Op: OpMul, Dst: scaled, A: Const(int64(width)), B: idx})
			offset = Temp(scaled)
		}
		dst := lo.newTemp(typeInfo{width: 8})
		lo.emit(Instr{Op: OpAdd, Dst: dst, A: offset, B: base})
		return Temp(dst), width, nil
	case *csrc.Unary:
		if x.Op == "*" {
			addr, err := lo.exprAsAddr(x.X)
			if err != nil {
				return None, 0, err
			}
			return addr, lo.pointeeWidth(x.X), nil
		}
	case *csrc.Cast:
		return lo.addr(x.X)
	}
	return None, 0, fmt.Errorf("cannot take address of %T: %w", e, ErrUnsupported)
}

// exprAsAddr lowers an expression used as a pointer.
func (lo *lowerer) exprAsAddr(e csrc.Expr) (Operand, error) {
	return lo.expr(e)
}

// pointeeWidth statically determines the width accessed through a pointer
// expression, defaulting to 8.
func (lo *lowerer) pointeeWidth(e csrc.Expr) int {
	switch x := e.(type) {
	case *csrc.Ident:
		if t, ok := lo.lookup(x.Name); ok {
			if ti := lo.types[t]; ti.pointee > 0 {
				return ti.pointee
			}
		}
	case *csrc.Cast:
		t := resolveType(lo.file, x.To)
		if t != nil && t.Kind == csrc.TypePointer {
			if ei, err := typeInfoOf(lo.file, t.Elem); err == nil && ei.width > 0 {
				return ei.width
			}
		}
		return lo.pointeeWidth(x.X)
	case *csrc.Member:
		if _, w, _, err := lo.fieldOf(x); err == nil {
			// A pointer field: its pointee defaults to 8 unless the struct
			// type says otherwise; fieldPointee handles that.
			if pw := lo.fieldPointee(x); pw > 0 {
				return pw
			}
			_ = w
		}
	case *csrc.Binary:
		if x.Op == "+" || x.Op == "-" {
			if w := lo.pointeeWidth(x.L); w != 8 {
				return w
			}
			return lo.pointeeWidth(x.R)
		}
	}
	return 8
}

// fieldOf resolves the struct field behind a member expression, returning
// the struct def, field width, and byte offset.
func (lo *lowerer) fieldOf(m *csrc.Member) (*csrc.StructDef, int, int, error) {
	st := lo.structOfExpr(m.X)
	if st == nil {
		return nil, 0, 0, fmt.Errorf("member %s on non-struct expression: %w", m.Name, ErrUnsupported)
	}
	off, ok := st.FieldOffset(m.Name)
	if !ok {
		return nil, 0, 0, fmt.Errorf("struct %s has no field %s: %w", st.Name, m.Name, ErrUnsupported)
	}
	for _, f := range st.Fields {
		if f.Name == m.Name {
			ti, err := typeInfoOf(lo.file, f.Type)
			if err != nil {
				return nil, 0, 0, err
			}
			w := ti.width
			if w == 0 {
				w = 8
			}
			return st, w, off, nil
		}
	}
	return nil, 0, 0, fmt.Errorf("struct %s has no field %s: %w", st.Name, m.Name, ErrUnsupported)
}

// fieldPointee returns the pointee width of a pointer-typed field, or 0.
func (lo *lowerer) fieldPointee(m *csrc.Member) int {
	st := lo.structOfExpr(m.X)
	if st == nil {
		return 0
	}
	for _, f := range st.Fields {
		if f.Name == m.Name {
			t := resolveType(lo.file, f.Type)
			if t != nil && t.Kind == csrc.TypePointer {
				if ei, err := typeInfoOf(lo.file, t.Elem); err == nil && ei.width > 0 {
					return ei.width
				}
				return 8
			}
		}
	}
	return 0
}

// structOfExpr resolves the struct type a pointer expression points to.
func (lo *lowerer) structOfExpr(e csrc.Expr) *csrc.StructDef {
	var t *csrc.Type
	switch x := e.(type) {
	case *csrc.Ident:
		// Find the declared type via the symbol table.
		for _, sym := range lo.fn.Symbols {
			if tmp, ok := lo.lookup(x.Name); ok && sym.Temp == tmp {
				t = typeFromString(sym.OrigType)
			}
		}
		if t == nil {
			return nil
		}
	case *csrc.Cast:
		t = x.To
	case *csrc.Member:
		// Nested member: s->a->b; resolve the field's type.
		st := lo.structOfExpr(x.X)
		if st == nil {
			return nil
		}
		for _, f := range st.Fields {
			if f.Name == x.Name {
				t = f.Type
			}
		}
	default:
		return nil
	}
	t = resolveType(lo.file, t)
	for t != nil && t.Kind == csrc.TypePointer {
		t = resolveType(lo.file, t.Elem)
	}
	if t == nil || t.Kind != csrc.TypeNamed {
		return nil
	}
	st, _ := lo.file.Struct(t.Name)
	return st
}

// typeFromString reparses a type spelling recorded in the symbol table.
// Spellings come from Type.String(), so the mini-parser below suffices.
func typeFromString(s string) *csrc.Type {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "const ")
	stars := 0
	for strings.HasSuffix(s, "*") {
		s = strings.TrimSpace(strings.TrimSuffix(s, "*"))
		stars++
	}
	var t *csrc.Type
	if baseTypeSpelling(s) {
		t = csrc.BaseType(s)
	} else {
		t = csrc.NamedType(s)
	}
	for i := 0; i < stars; i++ {
		t = csrc.PointerTo(t)
	}
	return t
}

func baseTypeSpelling(s string) bool {
	switch strings.Fields(s)[0] {
	case "void", "char", "short", "int", "long", "unsigned", "signed":
		return true
	default:
		return false
	}
}

// resultType infers the temp type of a binary operation for pointer
// propagation.
func (lo *lowerer) resultType(op string, l, r Operand) typeInfo {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return typeInfo{width: 4, signed: true}
	}
	lt := lo.operandType(l)
	rt := lo.operandType(r)
	if lt.pointee > 0 {
		return lt
	}
	if rt.pointee > 0 {
		return rt
	}
	w := lt.width
	if rt.width > w {
		w = rt.width
	}
	if w == 0 {
		w = 8
	}
	return typeInfo{width: w, signed: lt.signed || rt.signed}
}

func (lo *lowerer) operandType(o Operand) typeInfo {
	if o.Kind == OperandTemp {
		return lo.types[o.Temp]
	}
	return typeInfo{width: 8, signed: true}
}

// scalePointerArith multiplies the integer side of pointer+int arithmetic
// by the pointee width, mirroring C semantics so the IR address math is
// explicit bytes.
func (lo *lowerer) scalePointerArith(op string, l, r Operand) (Operand, Operand) {
	lt, rt := lo.operandType(l), lo.operandType(r)
	scale := func(o Operand, w int) Operand {
		if w <= 1 {
			return o
		}
		if o.Kind == OperandConst {
			return Const(o.Const * int64(w))
		}
		dst := lo.newTemp(typeInfo{width: 8})
		lo.emit(Instr{Op: OpMul, Dst: dst, A: Const(int64(w)), B: o})
		return Temp(dst)
	}
	if lt.pointee > 0 && rt.pointee == 0 {
		return l, scale(r, lt.pointee)
	}
	if rt.pointee > 0 && lt.pointee == 0 && op == "+" {
		return scale(l, rt.pointee), r
	}
	return l, r
}

// parseIntLit parses C integer literal spellings (decimal, hex, suffixes).
func parseIntLit(text string) (int64, error) {
	t := strings.TrimRight(text, "uUlL")
	base := 10
	if strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X") {
		base = 16
		t = t[2:]
	}
	v, err := strconv.ParseInt(t, base, 64)
	if err != nil {
		// Try unsigned range.
		u, uerr := strconv.ParseUint(t, base, 64)
		if uerr != nil {
			return 0, fmt.Errorf("compile: integer literal %q: %w", text, ErrUnsupported)
		}
		return int64(u), nil
	}
	return v, nil
}

// charValue evaluates a character literal body.
func charValue(body string) int64 {
	if body == "" {
		return 0
	}
	if body[0] == '\\' && len(body) > 1 {
		switch body[1] {
		case 'n':
			return '\n'
		case 't':
			return '\t'
		case 'r':
			return '\r'
		case '0':
			return 0
		case '\\':
			return '\\'
		case '\'':
			return '\''
		default:
			return int64(body[1])
		}
	}
	return int64(body[0])
}

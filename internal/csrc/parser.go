package csrc

import (
	"context"
	"errors"
	"fmt"

	"decompstudy/internal/fault"
	"decompstudy/internal/obs"
)

// ErrParse is returned for syntactically invalid input.
var ErrParse = errors.New("csrc: parse error")

// ErrLimit is returned, together with ErrParse, for input nested deeper
// than MaxExprDepth or MaxStmtDepth. The limits bound the recursion of
// every later stage (lowering, optimization, lifting, printing), so no
// source under the served body cap can overflow a goroutine stack.
var ErrLimit = errors.New("csrc: nesting limit exceeded")

// Nesting limits, counted as parser recursion. Expression depth grows by
// one per unary operator or cast and per operator of a binary chain (a
// chain of n operators is n levels deep), and by two per parenthesized,
// assigned or ternary-arm subexpression. Statement depth grows by one per
// nested statement, so each `if (...) {` opens two. Both sit far above
// the corpus and the deepest generated benchmark nests (about 520
// statement levels).
const (
	MaxExprDepth = 1024
	MaxStmtDepth = 1024
)

// baseTypeKeywords start a base type.
var baseTypeKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"unsigned": true, "signed": true,
}

// builtinTypeNames are identifier-spelled types known without declaration,
// covering the standard and Hex-Rays spellings that appear in the corpus.
var builtinTypeNames = map[string]bool{
	"size_t": true, "ssize_t": true, "uint32_t": true, "uint64_t": true,
	"int32_t": true, "int64_t": true, "uint8_t": true, "intptr_t": true,
	"__int64": true, "__int32": true, "__int16": true, "__int8": true,
	"_QWORD": true, "_DWORD": true, "_WORD": true, "_BYTE": true,
	"bool": true,
}

// Parser parses the project C subset.
type Parser struct {
	toks      []Token
	pos       int
	typeNames map[string]bool
	file      *File
	// exprDepth and stmtDepth count the open expression and statement
	// levels (see MaxExprDepth).
	exprDepth, stmtDepth int
}

// NewParser prepares a parser for src. extraTypes registers additional
// identifier-spelled type names (e.g. types defined in another snippet).
func NewParser(src string, extraTypes []string) (*Parser, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	tn := map[string]bool{}
	for n := range builtinTypeNames {
		tn[n] = true
	}
	for _, n := range extraTypes {
		tn[n] = true
	}
	return &Parser{
		toks:      toks,
		typeNames: tn,
		file:      &File{Typedefs: map[string]*Type{}},
	}, nil
}

// Parse parses the whole translation unit.
func Parse(src string, extraTypes []string) (*File, error) {
	return ParseCtx(context.Background(), src, extraTypes)
}

// ParseCtx is Parse with telemetry: it opens a csrc.Parse span and records
// call/byte/function counters when the context carries an obs handle.
func ParseCtx(ctx context.Context, src string, extraTypes []string) (*File, error) {
	_, sp := obs.StartSpan(ctx, "csrc.Parse", obs.KV("bytes", len(src)))
	defer sp.End()
	if err := fault.Check(ctx, fault.CsrcParse); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	obs.AddCount(ctx, "csrc.parse.calls", 1)
	obs.AddCount(ctx, "csrc.parse.bytes", int64(len(src)))
	p, err := NewParser(src, extraTypes)
	if err != nil {
		return nil, err
	}
	file, err := p.ParseFile()
	if err != nil {
		obs.AddCount(ctx, "csrc.parse.errors", 1)
		if errors.Is(err, ErrLimit) {
			obs.AddCount(ctx, "csrc.parse.limit_rejects", 1)
		}
		return nil, err
	}
	sp.SetAttr("functions", len(file.Functions))
	obs.AddCount(ctx, "csrc.parse.functions", int64(len(file.Functions)))
	return file, nil
}

// ParseFile consumes top-level declarations until EOF.
func (p *Parser) ParseFile() (*File, error) {
	for !p.at(TokEOF, "") {
		if err := p.parseTopLevel(); err != nil {
			return nil, err
		}
	}
	return p.file, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) peek() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *Parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = kind.String()
		}
		return t, fmt.Errorf("csrc: line %d col %d: expected %q, found %q: %w", t.Line, t.Col, want, t.Text, ErrParse)
	}
	p.pos++
	return t, nil
}

func (p *Parser) errorf(format string, args ...any) error {
	t := p.cur()
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("csrc: line %d col %d: %s: %w", t.Line, t.Col, msg, ErrParse)
}

// descend opens one more nesting level in *depth, failing with ErrLimit
// past limit. The caller closes the level by decrementing *depth.
func (p *Parser) descend(depth *int, limit int, what string) error {
	*depth++
	if *depth > limit {
		t := p.cur()
		return fmt.Errorf("csrc: line %d col %d: %s nesting deeper than %d: %w: %w",
			t.Line, t.Col, what, limit, ErrLimit, ErrParse)
	}
	return nil
}

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart() bool {
	t := p.cur()
	switch t.Kind {
	case TokKeyword:
		return baseTypeKeywords[t.Text] || t.Text == "const" || t.Text == "struct" || t.Text == "static"
	case TokIdent:
		return p.typeNames[t.Text]
	default:
		return false
	}
}

func (p *Parser) parseTopLevel() error {
	switch {
	case p.at(TokKeyword, "typedef"):
		return p.parseTypedef()
	case p.at(TokKeyword, "struct") && p.peek().Kind == TokIdent && p.toks[min(p.pos+2, len(p.toks)-1)].Text == "{":
		s, err := p.parseStructDef()
		if err != nil {
			return err
		}
		p.file.Structs = append(p.file.Structs, s)
		_, err = p.expect(TokPunct, ";")
		return err
	default:
		return p.parseFunction()
	}
}

// parseStructDef parses `struct Name { fields }` (without the trailing
// semicolon).
func (p *Parser) parseStructDef() (*StructDef, error) {
	if _, err := p.expect(TokKeyword, "struct"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	def := &StructDef{Name: name.Text}
	p.typeNames[name.Text] = true
	for !p.accept(TokPunct, "}") {
		ft, fname, err := p.parseTypeAndName()
		if err != nil {
			return nil, err
		}
		def.Fields = append(def.Fields, StructField{Type: ft, Name: fname})
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
	}
	return def, nil
}

// parseTypedef parses `typedef struct Name {...} Alias;` or
// `typedef type Alias;`.
func (p *Parser) parseTypedef() error {
	if _, err := p.expect(TokKeyword, "typedef"); err != nil {
		return err
	}
	if p.at(TokKeyword, "struct") && (p.peek().Text == "{" || p.toks[min(p.pos+2, len(p.toks)-1)].Text == "{") {
		// typedef struct [Tag] { ... } Alias;
		p.pos++ // struct
		tag := ""
		if p.at(TokIdent, "") {
			tag = p.cur().Text
			p.pos++
		}
		if _, err := p.expect(TokPunct, "{"); err != nil {
			return err
		}
		def := &StructDef{Name: tag}
		for !p.accept(TokPunct, "}") {
			ft, fname, err := p.parseTypeAndName()
			if err != nil {
				return err
			}
			def.Fields = append(def.Fields, StructField{Type: ft, Name: fname})
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return err
			}
		}
		alias, err := p.expect(TokIdent, "")
		if err != nil {
			return err
		}
		if def.Name == "" {
			def.Name = alias.Text
		}
		p.file.Structs = append(p.file.Structs, def)
		p.typeNames[alias.Text] = true
		if def.Name != "" {
			p.typeNames[def.Name] = true
		}
		p.file.Typedefs[alias.Text] = NamedType(def.Name)
		_, err = p.expect(TokPunct, ";")
		return err
	}
	// typedef existing-type Alias; — also supports function-pointer
	// aliases: typedef ret (*Alias)(params);
	under, err := p.parseType()
	if err != nil {
		return err
	}
	if p.accept(TokPunct, "(") {
		if _, err := p.expect(TokPunct, "*"); err != nil {
			return err
		}
		alias, err := p.expect(TokIdent, "")
		if err != nil {
			return err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return err
		}
		params, err := p.parseTypeList()
		if err != nil {
			return err
		}
		p.typeNames[alias.Text] = true
		p.file.Typedefs[alias.Text] = FuncType(under, params)
		_, err = p.expect(TokPunct, ";")
		return err
	}
	alias, err := p.expect(TokIdent, "")
	if err != nil {
		return err
	}
	p.typeNames[alias.Text] = true
	p.file.Typedefs[alias.Text] = under
	_, err = p.expect(TokPunct, ";")
	return err
}

// parseTypeList parses a parenthesized comma-separated list of types
// (param names optional and discarded).
func (p *Parser) parseTypeList() ([]*Type, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	var out []*Type
	if p.accept(TokPunct, ")") {
		return out, nil
	}
	for {
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		// Optional parameter name.
		if p.at(TokIdent, "") && !p.typeNames[p.cur().Text] {
			p.pos++
		}
		out = append(out, t)
		if p.accept(TokPunct, ")") {
			return out, nil
		}
		if _, err := p.expect(TokPunct, ","); err != nil {
			return nil, err
		}
	}
}

// parseType parses a type: qualifiers, base, then pointer suffixes.
func (p *Parser) parseType() (*Type, error) {
	isConst := false
	for p.accept(TokKeyword, "const") || p.accept(TokKeyword, "static") {
		if p.toks[p.pos-1].Text == "const" {
			isConst = true
		}
	}
	var base *Type
	switch {
	case p.at(TokKeyword, "struct"):
		p.pos++
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		base = NamedType(name.Text)
	case p.cur().Kind == TokKeyword && baseTypeKeywords[p.cur().Text]:
		spelling := p.cur().Text
		p.pos++
		for p.cur().Kind == TokKeyword && baseTypeKeywords[p.cur().Text] {
			spelling += " " + p.cur().Text
			p.pos++
		}
		base = BaseType(spelling)
	case p.cur().Kind == TokIdent && p.typeNames[p.cur().Text]:
		base = NamedType(p.cur().Text)
		p.pos++
	default:
		return nil, p.errorf("expected type, found %q", p.cur().Text)
	}
	base.Const = isConst
	for {
		if p.accept(TokPunct, "*") {
			base = PointerTo(base)
			for p.accept(TokKeyword, "const") || p.accept(TokKeyword, "restrict") {
			}
			continue
		}
		break
	}
	return base, nil
}

// parseTypeAndName parses `type name` or the function-pointer declarator
// `ret (*name)(params)`.
func (p *Parser) parseTypeAndName() (*Type, string, error) {
	t, err := p.parseType()
	if err != nil {
		return nil, "", err
	}
	if p.accept(TokPunct, "(") {
		if _, err := p.expect(TokPunct, "*"); err != nil {
			return nil, "", err
		}
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, "", err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, "", err
		}
		params, err := p.parseTypeList()
		if err != nil {
			return nil, "", err
		}
		return FuncType(t, params), name.Text, nil
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, "", err
	}
	return t, name.Text, nil
}

// parseFunction parses a function definition.
func (p *Parser) parseFunction() error {
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	// Optional calling-convention annotation (identifier beginning "__").
	callConv := ""
	if p.at(TokIdent, "") && len(p.cur().Text) > 2 && p.cur().Text[:2] == "__" && p.peek().Kind == TokIdent {
		callConv = p.cur().Text
		p.pos++
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return err
	}
	fn := &Function{Ret: ret, Name: name.Text, CallConv: callConv}
	if !p.accept(TokPunct, ")") {
		for {
			if p.at(TokKeyword, "void") && p.peek().Text == ")" {
				p.pos++
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return err
				}
				break
			}
			pt, pname, err := p.parseTypeAndName()
			if err != nil {
				return err
			}
			fn.Params = append(fn.Params, Param{Type: pt, Name: pname})
			if p.accept(TokPunct, ")") {
				break
			}
			if _, err := p.expect(TokPunct, ","); err != nil {
				return err
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fn.Body = body
	p.file.Functions = append(p.file.Functions, fn)
	return nil
}

func (p *Parser) parseBlock() (*Block, error) {
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.accept(TokPunct, "}") {
		if p.at(TokEOF, "") {
			return nil, p.errorf("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.descend(&p.stmtDepth, MaxStmtDepth, "statement"); err != nil {
		return nil, err
	}
	defer func() { p.stmtDepth-- }()
	switch {
	case p.at(TokPunct, "{"):
		return p.parseBlock()
	case p.at(TokKeyword, "if"):
		p.pos++
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var elseStmt Stmt
		if p.accept(TokKeyword, "else") {
			elseStmt, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: elseStmt}, nil
	case p.at(TokKeyword, "while"):
		p.pos++
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body}, nil
	case p.at(TokKeyword, "do"):
		return p.parseDoWhile()
	case p.at(TokKeyword, "switch"):
		return p.parseSwitch()
	case p.at(TokKeyword, "for"):
		return p.parseFor()
	case p.at(TokKeyword, "return"):
		p.pos++
		if p.accept(TokPunct, ";") {
			return &Return{}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Return{X: x}, nil
	case p.at(TokKeyword, "break"):
		p.pos++
		_, err := p.expect(TokPunct, ";")
		return &Break{}, err
	case p.at(TokKeyword, "continue"):
		p.pos++
		_, err := p.expect(TokPunct, ";")
		return &Continue{}, err
	case p.isTypeStart():
		return p.parseDecl()
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: x}, nil
	}
}

func (p *Parser) parseDecl() (Stmt, error) {
	t, name, err := p.parseTypeAndName()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Type: t, Name: name}
	if p.accept(TokPunct, "=") {
		init, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	p.pos++ // for
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	f := &For{}
	if !p.accept(TokPunct, ";") {
		if p.isTypeStart() {
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			f.Init = d
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{X: x}
		}
	}
	if !p.accept(TokPunct, ";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
	}
	if !p.at(TokPunct, ")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	p.pos++ // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "while"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return &DoWhile{Body: body, Cond: cond}, nil
}

// parseSwitch parses a switch with implicitly-breaking cases (the subset
// has no fallthrough; an explicit trailing break per case is accepted and
// absorbed).
func (p *Parser) parseSwitch() (Stmt, error) {
	p.pos++ // switch
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	sw := &Switch{Tag: tag}
	sawDefault := false
	for !p.accept(TokPunct, "}") {
		var c SwitchCase
		switch {
		case p.accept(TokKeyword, "case"):
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Value = v
		case p.accept(TokKeyword, "default"):
			if sawDefault {
				return nil, p.errorf("duplicate default case")
			}
			sawDefault = true
		default:
			return nil, p.errorf("expected case or default, found %q", p.cur().Text)
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		for !p.at(TokKeyword, "case") && !p.at(TokKeyword, "default") && !p.at(TokPunct, "}") {
			if p.at(TokEOF, "") {
				return nil, p.errorf("unexpected end of input in switch")
			}
			// An explicit break ends the case body (implicit otherwise).
			if p.at(TokKeyword, "break") && p.peek().Text == ";" {
				p.pos += 2
				break
			}
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			c.Stmts = append(c.Stmts, st)
		}
		sw.Cases = append(sw.Cases, c)
	}
	if len(sw.Cases) == 0 {
		return nil, p.errorf("switch with no cases")
	}
	return sw, nil
}

// --- expressions (precedence climbing) ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	if err := p.descend(&p.exprDepth, MaxExprDepth, "expression"); err != nil {
		return nil, err
	}
	defer func() { p.exprDepth-- }()
	l, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokPunct && assignOps[p.cur().Text] {
		op := p.cur().Text
		p.pos++
		r, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept(TokPunct, "?") {
		return cond, nil
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ":"); err != nil {
		return nil, err
	}
	els, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, Then: then, Else: els}, nil
}

// binary operator precedence, higher binds tighter.
var binPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	// Each operator nests the tree built so far one level deeper.
	defer func(depth int) { p.exprDepth = depth }(p.exprDepth)
	for {
		t := p.cur()
		prec, ok := binPrec[t.Text]
		if t.Kind != TokPunct || !ok || prec < minPrec {
			return l, nil
		}
		p.pos++
		if err := p.descend(&p.exprDepth, MaxExprDepth, "expression"); err != nil {
			return nil, err
		}
		r, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.descend(&p.exprDepth, MaxExprDepth, "expression"); err != nil {
		return nil, err
	}
	defer func() { p.exprDepth-- }()
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "~", "-", "*", "&", "+":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "++", "--":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.peekIsType() {
				p.pos++
				to, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &Cast{To: to, X: x}, nil
			}
		}
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.pos++
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		st, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return &SizeofType{T: st}, nil
	}
	return p.parsePostfix()
}

// peekIsType reports whether the token after the current "(" begins a type
// (cast detection).
func (p *Parser) peekIsType() bool {
	t := p.peek()
	switch t.Kind {
	case TokKeyword:
		return baseTypeKeywords[t.Text] || t.Text == "const" || t.Text == "struct"
	case TokIdent:
		return p.typeNames[t.Text]
	default:
		return false
	}
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "(":
			p.pos++
			call := &Call{Fun: x}
			if !p.accept(TokPunct, ")") {
				for {
					arg, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if p.accept(TokPunct, ")") {
						break
					}
					if _, err := p.expect(TokPunct, ","); err != nil {
						return nil, err
					}
				}
			}
			x = call
		case "[":
			p.pos++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: idx}
		case ".", "->":
			arrow := t.Text == "->"
			p.pos++
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			x = &Member{X: x, Name: name.Text, Arrow: arrow}
		case "++", "--":
			p.pos++
			x = &Postfix{Op: t.Text, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIdent:
		p.pos++
		return &Ident{Name: t.Text}, nil
	case TokNumber:
		p.pos++
		return &IntLit{Text: t.Text}, nil
	case TokString:
		p.pos++
		return &StrLit{Value: t.Text}, nil
	case TokChar:
		p.pos++
		return &CharLit{Value: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			p.pos++
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

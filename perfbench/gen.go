package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"decompstudy/internal/compile"
	"decompstudy/internal/csrc"
)

// GenSource is one generated mini-C translation unit for the
// serve_sources workload.
type GenSource struct {
	Text string
	// Depth is the deepest control-flow nesting in the unit.
	Depth int
	// Nested marks a member of the deep-nesting tail: one function of
	// Depth nested ifs, the shape decomp.Lift is superlinear on.
	Nested bool
}

// Generator sizes. Ordinary units are corpus-sized; the nested tail is a
// narrow band of deep nests, so the latency tail they form is one cluster
// rather than a spread a few samples could wander over. Both are drawn
// stratified (one draw per equal-width slice of the range, in seeded
// order), so every phase of the same length gets the same size and depth
// profile and only the programs differ.
const (
	genMinBytes  = 300
	genMaxBytes  = 3000
	genMaxDepth  = 4 // control-flow nesting of ordinary units
	nestMinDepth = 220
	nestMaxDepth = 260
)

// GenerateSources returns n distinct mini-C units from seed. A share of
// them (share of n, rounded) are deep-nesting units; the rest are
// ordinary units of 0.3–3 KB. tag is woven into every function name so
// units from different phases never coincide. Every unit is parsed and
// compiled before it is returned.
func GenerateSources(seed int64, n int, share float64, tag string) ([]GenSource, error) {
	rng := rand.New(rand.NewSource(seed))
	nNested := int(math.Round(share * float64(n)))
	// Nested units sit at evenly spaced positions from a seeded offset, so
	// every stretch of a phase carries its share of the tail.
	nested := map[int]bool{}
	if nNested > 0 {
		stride := float64(n) / float64(nNested)
		off := rng.Float64() * stride
		for k := 0; k < nNested; k++ {
			nested[int(off+float64(k)*stride)] = true
		}
	}
	sizes := stratified(rng, n-nNested)
	depths := stratified(rng, nNested)
	out := make([]GenSource, 0, n)
	for i := 0; i < n; i++ {
		g := &cgen{rng: rng, name: fmt.Sprintf("%s_%d", tag, i)}
		var src GenSource
		if nested[i] {
			d := nestMinDepth + int(depths[0]*float64(nestMaxDepth-nestMinDepth))
			depths = depths[1:]
			src = GenSource{Text: g.nestedUnit(d), Depth: d, Nested: true}
		} else {
			// Log-uniform between the size bounds: most units are small, as
			// in the corpus, with a long tail toward 3 KB.
			target := int(genMinBytes * math.Pow(genMaxBytes/genMinBytes, sizes[0]))
			sizes = sizes[1:]
			src = GenSource{Text: g.unit(target), Depth: g.maxDepth}
		}
		if err := checkCompiles(src.Text); err != nil {
			return nil, fmt.Errorf("generated unit %d (seed %d): %w\n%s", i, seed, err, src.Text)
		}
		out = append(out, src)
	}
	return out, nil
}

// checkCompiles is the generator's acceptance test.
func checkCompiles(src string) error {
	file, err := csrc.Parse(src, nil)
	if err != nil {
		return err
	}
	_, err = compile.Compile(file)
	return err
}

// balanced returns n values in [0,k), each value appearing n/k times
// (rounded), in seeded order.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i, slot := range rng.Perm(n) {
		out[i] = slot % k
	}
	return out
}

// stratified returns n values in [0,1), one uniform draw from each of n
// equal slices, in seeded order.
func stratified(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, slot := range rng.Perm(n) {
		out[i] = (float64(slot) + rng.Float64()) / float64(n)
	}
	return out
}

// cgen writes one unit.
type cgen struct {
	rng      *rand.Rand
	name     string
	b        strings.Builder
	params   []string // integer parameters
	ptrs     []string // pointer parameters (long *)
	locals   []string // assignable integer locals
	loopVars []string // live for-loop counters (read-only in bodies)
	nloops   int
	maxDepth int
}

func (g *cgen) line(depth int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// unit writes functions until the unit reaches about target bytes.
func (g *cgen) unit(target int) string {
	for f := 0; g.b.Len() < target; f++ {
		// Leave room for the function's return and closing brace.
		budget := target - g.b.Len()
		if budget < 160 {
			budget = 160
		}
		if budget > 1400 {
			budget = 600 + g.rng.Intn(800)
		}
		g.function(fmt.Sprintf("%s_f%d", g.name, f), g.b.Len()+budget)
	}
	return g.b.String()
}

var intTypes = []string{"int", "long"}

func (g *cgen) function(name string, until int) {
	g.params, g.ptrs, g.locals, g.loopVars = nil, nil, nil, nil
	var decl []string
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		p := fmt.Sprintf("a%d", i)
		g.params = append(g.params, p)
		decl = append(decl, intTypes[g.rng.Intn(2)]+" "+p)
	}
	if g.rng.Intn(2) == 0 {
		g.ptrs = append(g.ptrs, "buf")
		decl = append(decl, "long *buf")
	}
	g.line(0, "long %s(%s) {", name, strings.Join(decl, ", "))
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		v := fmt.Sprintf("v%d", i)
		g.line(1, "long %s = %s;", v, g.expr(1))
		g.locals = append(g.locals, v)
	}
	for g.b.Len() < until {
		g.stmt(1)
	}
	g.line(1, "return %s;", g.expr(2))
	g.line(0, "}")
	g.b.WriteByte('\n')
}

func (g *cgen) stmt(depth int) {
	if depth > g.maxDepth {
		g.maxDepth = depth
	}
	k := g.rng.Intn(10)
	if depth >= genMaxDepth {
		k %= 4 // straight-line statements only
	}
	switch {
	case k < 3:
		v := g.locals[g.rng.Intn(len(g.locals))]
		op := []string{"=", "+=", "-=", "^="}[g.rng.Intn(4)]
		g.line(depth, "%s %s %s;", v, op, g.expr(2))
	case k == 3 && len(g.ptrs) > 0:
		g.line(depth, "buf[%s] = %s;", g.index(), g.expr(1))
	case k == 3:
		v := g.locals[g.rng.Intn(len(g.locals))]
		g.line(depth, "%s = helper_%d(%s, %s);", v, g.rng.Intn(4), g.operand(), g.operand())
	case k < 7:
		g.line(depth, "if (%s) {", g.cond())
		g.block(depth + 1)
		if g.rng.Intn(2) == 0 {
			g.line(depth, "} else {")
			g.block(depth + 1)
		}
		g.line(depth, "}")
	default:
		i := fmt.Sprintf("i%d", g.nloops)
		g.nloops++
		g.line(depth, "for (int %s = 0; %s < %d; %s++) {", i, i, 2+g.rng.Intn(7), i)
		g.loopVars = append(g.loopVars, i)
		g.block(depth + 1)
		g.loopVars = g.loopVars[:len(g.loopVars)-1]
		g.line(depth, "}")
	}
}

func (g *cgen) block(depth int) {
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		g.stmt(depth)
	}
}

func (g *cgen) operand() string {
	pool := append(append(append([]string{}, g.params...), g.locals...), g.loopVars...)
	switch r := g.rng.Intn(10); {
	case r < 2:
		return fmt.Sprintf("%d", g.rng.Intn(64))
	case r == 2 && len(g.ptrs) > 0:
		return "buf[" + g.index() + "]"
	default:
		return pool[g.rng.Intn(len(pool))]
	}
}

// index is a small in-range subscript: a loop counter or a constant.
func (g *cgen) index() string {
	if len(g.loopVars) > 0 && g.rng.Intn(2) == 0 {
		return g.loopVars[g.rng.Intn(len(g.loopVars))]
	}
	return fmt.Sprintf("%d", g.rng.Intn(8))
}

func (g *cgen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.operand()
	}
	switch op := []string{"+", "-", "*", "&", "|", "^", "<<", ">>"}[g.rng.Intn(8)]; op {
	case "<<", ">>":
		return fmt.Sprintf("(%s %s %d)", g.expr(depth-1), op, 1+g.rng.Intn(3))
	default:
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	}
}

func (g *cgen) cond() string {
	c := fmt.Sprintf("%s %s %s", g.expr(1), []string{"<", ">", "<=", ">=", "==", "!="}[g.rng.Intn(6)], g.operand())
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s && %s", c, g.operand())
	case 1:
		return fmt.Sprintf("!(%s)", c)
	}
	return c
}

// nestedUnit writes one function of depth nested ifs, each level updating
// an accumulator, the shape that makes structuring superlinear. Lines are
// not indented by depth, so the unit stays about 25 bytes per level.
func (g *cgen) nestedUnit(depth int) string {
	g.maxDepth = depth
	g.line(0, "long %s_nest(int a, int b) {", g.name)
	g.line(1, "long x = b;")
	for d := 0; d < depth; d++ {
		g.line(1, "if (a > %d) {", d)
		g.line(1, "x = x + %d;", 1+g.rng.Intn(9))
	}
	for d := 0; d < depth; d++ {
		g.line(1, "}")
	}
	g.line(1, "return x;")
	g.line(0, "}")
	return g.b.String()
}

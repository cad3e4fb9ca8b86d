package decomp_test

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"decompstudy/internal/compile"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
)

// nestFile builds nestSource(depth) directly as an AST, so depths past
// the parser's statement-nesting limit can still be compiled and lifted.
func nestFile(depth int) *csrc.File {
	id := func(n string) csrc.Expr { return &csrc.Ident{Name: n} }
	lit := func(v int) csrc.Expr { return &csrc.IntLit{Text: strconv.Itoa(v)} }
	var nested csrc.Stmt
	for d := depth - 1; d >= 0; d-- {
		then := &csrc.Block{Stmts: []csrc.Stmt{&csrc.ExprStmt{X: &csrc.Assign{
			Op: "=", L: id("x"), R: &csrc.Binary{Op: "+", L: id("x"), R: lit(1 + d%9)},
		}}}}
		if nested != nil {
			then.Stmts = append(then.Stmts, nested)
		}
		nested = &csrc.If{Cond: &csrc.Binary{Op: ">", L: id("a"), R: lit(d)}, Then: then}
	}
	fn := &csrc.Function{
		Ret:    csrc.BaseType("long"),
		Name:   "nest" + strconv.Itoa(depth),
		Params: []csrc.Param{{Type: csrc.BaseType("int"), Name: "a"}, {Type: csrc.BaseType("int"), Name: "b"}},
		Body: &csrc.Block{Stmts: []csrc.Stmt{
			&csrc.DeclStmt{Type: csrc.BaseType("long"), Name: "x", Init: id("b")},
			nested,
			&csrc.Return{X: id("x")},
		}},
	}
	return &csrc.File{Functions: []*csrc.Function{fn}, Typedefs: map[string]*csrc.Type{}}
}

func TestNestFileMatchesNestSource(t *testing.T) {
	file, err := csrc.Parse(nestSource(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	lifted := func(f *csrc.File) string {
		obj, err := compile.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := decomp.LiftFunc(obj.Funcs[0])
		if err != nil {
			t.Fatal(err)
		}
		return d.Source()
	}
	if got, want := lifted(nestFile(5)), lifted(file); got != want {
		t.Fatalf("AST nest lifts to\n%s\nparsed nest lifts to\n%s", got, want)
	}
}

// prefaultHeap touches n bytes of heap and drops them, so the next
// collection leaves that much faulted-in memory for the allocator to reuse.
func prefaultHeap(n int) {
	b := make([]byte, n)
	for i := range b {
		b[i] = 1
	}
}

// TestStructuringScalesLinearly times compile and lift on nests of depth
// 500 and 2000 and requires the ratio of the per-run times to stay under
// 6. Linear work gives about 4; the set-based post-dominators made lift
// about 16× and the block-by-ID and scope-chain scans made compile about
// 12×. Each stage takes the minimum of 5 samples per depth, alternating
// depths; a depth-500 sample is 4 back-to-back runs, so both samples do
// the same work and see the same host noise.
//
// The runtime is held steady so the ratio measures the algorithms: the
// collector is paused during the samples, the heap is pre-faulted so
// fresh allocations cost no page faults, and a warm-up run grows the
// goroutine stack to the deep nest first. Without these, GC pacing on a
// small heap, page faults and stack regrowth each add a superlinear term
// that swung the ratio between 4 and 10 from run to run on a shared 2-CPU
// VM.
func TestStructuringScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const small, large, samples, maxRatio = 500, 2000, 5, 6.0
	files := map[int]*csrc.File{small: nestFile(small), large: nestFile(large)}
	funcs := map[int]*compile.Func{}
	for depth, f := range files {
		obj, err := compile.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		funcs[depth] = obj.Funcs[0]
	}
	stages := []struct {
		name string
		run  func(depth int) error
	}{
		{"compile", func(depth int) error { _, err := compile.Compile(files[depth]); return err }},
		{"lift", func(depth int) error { _, err := decomp.LiftFunc(funcs[depth]); return err }},
	}
	for _, st := range stages {
		prefaultHeap(64 << 20)
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		best := map[int]time.Duration{}
		if err := st.run(large); err != nil {
			t.Fatalf("%s warm-up: %v", st.name, err)
		}
		for i := 0; i < samples; i++ {
			for _, depth := range []int{small, large} {
				reps := large / depth
				start := time.Now()
				for r := 0; r < reps; r++ {
					if err := st.run(depth); err != nil {
						t.Fatalf("%s depth %d: %v", st.name, depth, err)
					}
				}
				if d := time.Since(start) / time.Duration(reps); i == 0 || d < best[depth] {
					best[depth] = d
				}
			}
		}
		debug.SetGCPercent(gcPercent)
		ratio := float64(best[large]) / float64(best[small])
		t.Logf("%s: depth %d %v, depth %d %v, ratio %.2f", st.name, small, best[small], large, best[large], ratio)
		if ratio >= maxRatio {
			t.Errorf("%s time(depth %d)/time(depth %d) = %.2f, want < %.0f", st.name, large, small, ratio, maxRatio)
		}
	}
}

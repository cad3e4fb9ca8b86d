package opt

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/obs"
)

// TestDifferentialRandom is the quick-check suite from the roadmap: a
// thousand randomized well-formed functions, each optimized at -O1 and
// -O2 with the built-in differential gate, plus extra input vectors
// through Equivalent. Any behavioral divergence or verifier diagnostic
// fails the run. Short mode trims the count for the pre-commit loop.
func TestDifferentialRandom(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	r := rand.New(rand.NewSource(26))
	ctx := context.Background()
	for i := 0; i < n; i++ {
		f := analysis.GenFunc(r)
		if analysis.CountSev(analysis.Verify(f), analysis.SevError) > 0 {
			t.Fatalf("GenFunc emitted invalid IR at i=%d", i)
		}
		obj := &compile.Object{Funcs: []*compile.Func{f}}
		for _, level := range []Level{O1, O2} {
			out, _, err := OptimizeObject(ctx, obj, level)
			if err != nil {
				t.Fatalf("i=%d %s: %v\ninput:\n%s", i, level, err, f)
			}
			for _, ofn := range out.Funcs {
				if diags := analysis.Verify(ofn); len(diags) > 0 {
					t.Fatalf("i=%d %s: %d diagnostics on optimized IR: %v", i, level, len(diags), diags[0])
				}
			}
			if err := Equivalent(obj, out, f.Name, 8, int64(i)*1009+int64(level)); err != nil {
				t.Fatalf("i=%d %s extra vectors: %v\ninput:\n%s", i, level, err, f)
			}
		}
	}
}

// TestEquivalentCatchesMiscompiles: the harness itself must flag a wrong
// constant, a wrong store, and a wrong fault — otherwise the gate is
// decorative.
func TestEquivalentCatchesMiscompiles(t *testing.T) {
	orig := fn("victim", 1, 2,
		blk(0,
			ibin(compile.OpAdd, 1, compile.Temp(0), compile.Const(1)),
			iret(compile.Temp(1)),
		),
	)
	obj := &compile.Object{Funcs: []*compile.Func{orig}}

	wrongValue := fn("victim", 1, 2,
		blk(0,
			ibin(compile.OpAdd, 1, compile.Temp(0), compile.Const(2)),
			iret(compile.Temp(1)),
		),
	)
	wrongMem := fn("victim", 1, 2,
		blk(0,
			ibin(compile.OpAdd, 1, compile.Temp(0), compile.Const(1)),
			istore(compile.Const(64), compile.Const(7), 1),
			iret(compile.Temp(1)),
		),
	)
	wrongFault := fn("victim", 1, 2,
		blk(0,
			ibin(compile.OpDiv, 1, compile.Const(1), compile.Const(0)),
			iret(compile.Temp(1)),
		),
	)
	for name, bad := range map[string]*compile.Func{
		"value": wrongValue, "memory": wrongMem, "fault": wrongFault,
	} {
		badObj := &compile.Object{Funcs: []*compile.Func{bad}}
		if err := Equivalent(obj, badObj, "victim", 8, 3); err == nil {
			t.Errorf("Equivalent missed the %s miscompile", name)
		}
	}
}

// TestEquivalentRejectsStoreToUntouchedPage: a miscompile whose only
// effect is a store into a page the original never reaches must still be
// caught — the gate compares every page either side touched.
func TestEquivalentRejectsStoreToUntouchedPage(t *testing.T) {
	orig := fn("victim", 1, 3,
		blk(0,
			iload(1, compile.Const(16), 8),
			ibin(compile.OpAdd, 2, compile.Temp(0), compile.Temp(1)),
			iret(compile.Temp(2)),
		),
	)
	bad := fn("victim", 1, 3,
		blk(0,
			iload(1, compile.Const(16), 8),
			ibin(compile.OpAdd, 2, compile.Temp(0), compile.Temp(1)),
			istore(compile.Const(0x8003), compile.Const(7), 8),
			iret(compile.Temp(2)),
		),
	)
	a := &compile.Object{Funcs: []*compile.Func{orig}}
	b := &compile.Object{Funcs: []*compile.Func{bad}}
	err := Equivalent(a, b, "victim", 4, 9)
	if err == nil {
		t.Fatal("Equivalent missed a store to a page the original never touches")
	}
	if !strings.Contains(err.Error(), "memories diverge at offset 0x800") {
		t.Errorf("error %q does not name the diverging offset in page 0x8000", err)
	}
}

// TestEquivalentIsDeterministic: the same seed gives the same verdict
// and the same error text, for agreeing and disagreeing pairs alike.
func TestEquivalentIsDeterministic(t *testing.T) {
	orig := fn("victim", 2, 4,
		blk(0,
			iload(2, compile.Temp(0), 4),
			ibin(compile.OpMul, 3, compile.Temp(2), compile.Temp(1)),
			istore(compile.Temp(0), compile.Temp(3), 4),
			iret(compile.Temp(3)),
		),
	)
	off := fn("victim", 2, 4,
		blk(0,
			iload(2, compile.Temp(0), 4),
			ibin(compile.OpMul, 3, compile.Temp(2), compile.Temp(1)),
			istore(compile.Temp(0), compile.Temp(2), 4),
			iret(compile.Temp(3)),
		),
	)
	a := &compile.Object{Funcs: []*compile.Func{orig}}
	b := &compile.Object{Funcs: []*compile.Func{off}}
	for _, seed := range []int64{1, 2, 3} {
		if err1, err2 := Equivalent(a, a, "victim", 8, seed), Equivalent(a, a, "victim", 8, seed); err1 != nil || err2 != nil {
			t.Fatalf("seed %d: identical objects disagree: %v / %v", seed, err1, err2)
		}
		err1, err2 := Equivalent(a, b, "victim", 8, seed), Equivalent(a, b, "victim", 8, seed)
		if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
			t.Fatalf("seed %d: verdicts differ between runs: %v / %v", seed, err1, err2)
		}
	}
}

// smallMemFunc loads and stores a few words at fixed addresses.
func smallMemFunc() *compile.Object {
	f := fn("small", 1, 3,
		blk(0,
			iload(1, compile.Const(128), 8),
			ibin(compile.OpAdd, 2, compile.Temp(1), compile.Temp(0)),
			istore(compile.Const(136), compile.Temp(2), 8),
			iret(compile.Temp(2)),
		),
	)
	return &compile.Object{Funcs: []*compile.Func{f}}
}

// TestEquivalentMemoryScalesWithTouchedPages: the gate's allocation is
// O(touched memory), not O(vectors × machine size). Each vector used to
// build two fresh 64 KiB machines; now one machine pair is reset per
// vector, so 64 vectors must allocate less than 4 vectors plus 64 KiB.
// Each count is measured ten times and the least kept, so a recycled
// buffer dropped by a garbage collection, or by the race detector's
// random sync.Pool drops, cannot fail the comparison.
func TestEquivalentMemoryScalesWithTouchedPages(t *testing.T) {
	obj := smallMemFunc()
	alloc := func(vectors int) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 10; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := Equivalent(obj, obj, "small", vectors, 5); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	a4, a64 := alloc(4), alloc(64)
	if a64 >= a4+diffMemSize {
		t.Errorf("64 vectors allocated %d bytes, 4 vectors %d: want less than %d", a64, a4, a4+diffMemSize)
	}
}

// TestEquivalentCounters: the gate reports its work once per call, and
// agreeing, step-limited and materialised-page counts add up.
func TestEquivalentCounters(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	spin := fn("spin", 0, 0, blk(0, ibr(0)))
	spinObj := &compile.Object{Funcs: []*compile.Func{spin}}
	if err := EquivalentCtx(ctx, smallMemFunc(), smallMemFunc(), "small", 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := EquivalentCtx(ctx, spinObj, spinObj, "spin", 3, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		label []obs.Label
		want  int64
	}{
		{"opt.diff.vectors", []obs.Label{obs.L("result", "agree")}, 4},
		{"opt.diff.vectors", []obs.Label{obs.L("result", "step_limit")}, 3},
		{"opt.diff.pages", nil, 4 * 2}, // page 0 on both machines per vector
	} {
		if got := o.Metrics.CounterL(c.name, c.label...).Value(); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.label, got, c.want)
		}
	}

	// The vector loop, counters included, allocates nothing: 60 more
	// vectors must not add an allocation per vector. The slack absorbs
	// the race detector's random sync.Pool drops, which cost one buffer
	// allocation per affected call.
	bg := context.Background()
	obj := smallMemFunc()
	allocs := func(vectors int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := EquivalentCtx(bg, obj, obj, "small", vectors, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a4, a64 := allocs(4), allocs(64); a64-a4 >= 6 {
		t.Errorf("Equivalent allocates %v times with 4 vectors but %v with 64", a4, a64)
	}
}

// TestOptimizeRejectsBadLevel: invalid levels error through both entry
// points rather than silently running some default.
func TestOptimizeRejectsBadLevel(t *testing.T) {
	f := fn("f", 0, 1, blk(0, iret(compile.Const(0))))
	obj := &compile.Object{Funcs: []*compile.Func{f}}
	if _, _, err := Optimize(context.Background(), f, Level(7)); err == nil {
		t.Error("Optimize accepted level 7")
	}
	if _, _, err := OptimizeObject(context.Background(), obj, Level(-2)); err == nil {
		t.Error("OptimizeObject accepted level -2")
	}
}

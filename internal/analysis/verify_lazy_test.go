package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"decompstudy/internal/compile"
)

// verifyEager is the reference verifier: reaching definitions are solved
// before the def-before-use scan, whether or not any read needs them.
func verifyEager(fn *compile.Func) []Diag {
	v := &verifier{fn: fn, eagerReach: true}
	v.run()
	return v.diags
}

func renderDiags(diags []Diag) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func assertLazyMatchesEager(t *testing.T, label string, fn *compile.Func) {
	t.Helper()
	lazy, eager := renderDiags(Verify(fn)), renderDiags(verifyEager(fn))
	if lazy != eager {
		t.Fatalf("%s: lazy verifier diagnostics differ from eager reference\nlazy:\n%seager:\n%s\n%s",
			label, lazy, eager, fn)
	}
}

// TestLazyReachingDefsMatchesEager pins that solving reaching definitions
// on demand leaves Verify's diagnostics byte-identical: on generated
// functions, on every mutation TestVerifyFlagsMutatedInvariants applies,
// and on hand-built functions that need the solution for both the
// never-defined error and the maybe-unassigned warning.
func TestLazyReachingDefsMatchesEager(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		assertLazyMatchesEager(t, "GenFunc", GenFunc(r))
	}

	for _, m := range mutations {
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(seed))
			fn := genFunc(r)
			if m.apply(fn, r) {
				assertLazyMatchesEager(t, m.name, fn)
			}
		}
	}

	neverDefined := tfn(0, 1, tb(0, ret(compile.Temp(0))))
	maybeUnassigned := tfn(1, 2,
		tb(0, condbr(compile.Temp(0), 1, 2)),
		tb(1, mov(1, compile.Const(1)), br(3)),
		tb(2, br(3)),
		tb(3, ret(compile.Temp(1))))
	both := tfn(1, 3,
		tb(0, condbr(compile.Temp(0), 1, 2)),
		tb(1, mov(1, compile.Const(1)), br(3)),
		tb(2, br(3)),
		tb(3, store(compile.Temp(2), compile.Temp(1), 8), ret(compile.Temp(1))))
	for name, tc := range map[string]struct {
		fn               *compile.Func
		errors, warnings int
	}{
		"never defined":    {neverDefined, 1, 0},
		"maybe unassigned": {maybeUnassigned, 0, 1},
		"both":             {both, 1, 2},
	} {
		assertLazyMatchesEager(t, name, tc.fn)
		var errs, warns int
		for _, d := range Verify(tc.fn) {
			if d.Check != "verify.def-before-use" {
				continue
			}
			if d.Sev == SevError {
				errs++
			} else {
				warns++
			}
		}
		if errs != tc.errors || warns != tc.warnings {
			t.Errorf("%s: %d def-before-use errors and %d warnings, want %d and %d",
				name, errs, warns, tc.errors, tc.warnings)
		}
	}
}

package opt

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/obs"
)

// ErrOpt is the sentinel wrapped by every optimizer failure: an invalid
// level, a pass whose output the verifier rejects, or a differential
// disagreement between original and optimized IR.
var ErrOpt = errors.New("opt: optimization failed")

// Level is an optimization level. O0 is the identity (callers get the
// exact *compile.Func/*compile.Object they passed in, so study artifacts
// stay byte-identical); O1 runs constant propagation and dead-code
// elimination once each; O2 adds copy propagation and iterates the
// pipeline until the instruction count stops shrinking.
type Level int

// The supported optimization levels.
const (
	O0 Level = 0
	O1 Level = 1
	O2 Level = 2
)

func (l Level) String() string { return fmt.Sprintf("-O%d", int(l)) }

// ParseLevel validates a numeric optimization level from a CLI flag or
// config field.
func ParseLevel(n int) (Level, error) {
	if n < 0 || n > 2 {
		return 0, fmt.Errorf("invalid optimization level %d (want 0, 1, or 2): %w", n, ErrOpt)
	}
	return Level(n), nil
}

// maxRounds bounds the -O2 fixpoint loop. Each productive round strictly
// shrinks the instruction count, so the bound exists only to cap cost on
// adversarial inputs; real functions settle in one or two rounds.
const maxRounds = 8

// PassStat records one pass's aggregate work.
type PassStat struct {
	// Pass names the pass: constprop, copyprop, or dce.
	Pass string `json:"pass"`
	// Runs counts pass applications (O2 iterates, so Runs can exceed the
	// function count).
	Runs int `json:"runs"`
	// Removed is the net instruction-count reduction attributed to the
	// pass, measured on the deconstructed (non-SSA) output. Negative means
	// the pass round-trip grew the function.
	Removed int `json:"removed"`
	// Nanos is wall time spent in the pass, SSA round-trip included.
	Nanos int64 `json:"nanos"`
}

// Stats aggregates optimizer work over a function or object.
type Stats struct {
	Level Level `json:"level"`
	// Funcs counts optimized functions.
	Funcs int `json:"funcs"`
	// InstrsBefore and InstrsAfter count IR instructions over all blocks
	// before and after optimization; their ratio is the shrink factor the
	// benchmarks record.
	InstrsBefore int `json:"instrs_before"`
	InstrsAfter  int `json:"instrs_after"`
	// Passes holds per-pass breakdowns in pipeline order.
	Passes []PassStat `json:"passes"`
}

func newStats(level Level) *Stats {
	return &Stats{Level: level, Passes: []PassStat{
		{Pass: "constprop"}, {Pass: "copyprop"}, {Pass: "dce"},
	}}
}

func (st *Stats) pass(name string) *PassStat {
	for i := range st.Passes {
		if st.Passes[i].Pass == name {
			return &st.Passes[i]
		}
	}
	st.Passes = append(st.Passes, PassStat{Pass: name})
	return &st.Passes[len(st.Passes)-1]
}

// Merge folds another Stats into st, pass by pass; benchmarks and
// OptimizeObject use it to aggregate per-function stats.
func (st *Stats) Merge(o *Stats) {
	st.Funcs += o.Funcs
	st.InstrsBefore += o.InstrsBefore
	st.InstrsAfter += o.InstrsAfter
	for _, p := range o.Passes {
		dst := st.pass(p.Pass)
		dst.Runs += p.Runs
		dst.Removed += p.Removed
		dst.Nanos += p.Nanos
	}
}

// countFuncInstrs counts IR instructions over all blocks — the size metric
// the fixpoint loop, Stats, and the benchmarks share.
func countFuncInstrs(fn *compile.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Optimize runs the pass pipeline for the level over one function. The
// input must be verifier-error-free and is never mutated; at O0 the input
// pointer itself is returned. After every pass the output is re-verified
// and any diagnostic at all — warnings included — fails the whole
// optimization with the structured Diags wrapped in the returned error.
// SSA round-trips are engineered to be warning-free (unreachable blocks
// are dropped, maybe-uninitialized reads become explicit zero
// initializations), so a surviving diagnostic is a pass bug, not noise.
func Optimize(ctx context.Context, fn *compile.Func, level Level) (*compile.Func, *Stats, error) {
	st := newStats(level)
	st.Funcs = 1
	st.InstrsBefore = countFuncInstrs(fn)
	st.InstrsAfter = st.InstrsBefore
	if level == O0 {
		return fn, st, nil
	}
	if _, err := ParseLevel(int(level)); err != nil {
		return nil, st, err
	}

	ctx, sp := obs.StartSpan(ctx, "opt.Optimize",
		obs.KV("func", fn.Name), obs.KV("level", level.String()))
	defer sp.End()

	cur := fn
	apply := func(name string, pass func(*ssaFunc)) error {
		start := time.Now()
		s := buildSSA(cur)
		pass(s)
		out := s.deconstruct()
		ps := st.pass(name)
		ps.Runs++
		removed := countFuncInstrs(cur) - countFuncInstrs(out)
		ps.Removed += removed
		ps.Nanos += time.Since(start).Nanoseconds()
		obs.AddCountL(ctx, "opt.pass.runs", 1, obs.L("pass", name))
		obs.AddCountL(ctx, "opt.pass.removed", int64(removed), obs.L("pass", name))
		if diags := analysis.VerifyCtx(ctx, out); len(diags) > 0 {
			return fmt.Errorf("%s: pass %s produced unverifiable IR for %s: %w",
				level, name, fn.Name,
				errors.Join(ErrOpt, analysis.AsError(diags, analysis.SevWarn)))
		}
		cur = out
		return nil
	}

	var err error
	switch level {
	case O1:
		if err = apply("constprop", (*ssaFunc).constProp); err == nil {
			err = apply("dce", (*ssaFunc).dce)
		}
	case O2:
		// Iterate to a fixpoint, keeping the smallest gated pass output: a
		// later round that fails to shrink is discarded. The first round is
		// always kept even when it grows — making implicit zero
		// initialization explicit can cost instructions — so every -O2
		// result is a verified pass output (zero diagnostics), never the
		// raw input with whatever warnings it carried.
		var best *compile.Func
		for round := 0; round < maxRounds; round++ {
			if err = apply("constprop", (*ssaFunc).constProp); err != nil {
				break
			}
			if err = apply("copyprop", (*ssaFunc).copyProp); err != nil {
				break
			}
			if err = apply("dce", (*ssaFunc).dce); err != nil {
				break
			}
			if best != nil && countFuncInstrs(cur) >= countFuncInstrs(best) {
				break
			}
			best = cur
		}
		if err == nil {
			cur = best
		}
	}
	if err != nil {
		return nil, st, err
	}
	st.InstrsAfter = countFuncInstrs(cur)
	sp.SetAttr("instrs_before", st.InstrsBefore)
	sp.SetAttr("instrs_after", st.InstrsAfter)
	return cur, st, nil
}

// diffVectors is the number of randomized input vectors OptimizeObject
// executes differentially per function.
const diffVectors = 4

// OptimizeObject optimizes every function of an object and gates the
// result twice: each pass output is verified (see Optimize), and the
// optimized object is executed against the original on randomized inputs
// through compile.Machine — both must agree exactly on result, fault
// behavior, and memory. At O0 the input object is returned untouched.
// The per-function differential seed derives from the function name, so
// runs are deterministic.
func OptimizeObject(ctx context.Context, obj *compile.Object, level Level) (*compile.Object, *Stats, error) {
	st := newStats(level)
	for _, fn := range obj.Funcs {
		n := countFuncInstrs(fn)
		st.InstrsBefore += n
		st.InstrsAfter += n
	}
	st.Funcs = len(obj.Funcs)
	if level == O0 {
		return obj, st, nil
	}
	if _, err := ParseLevel(int(level)); err != nil {
		return nil, st, err
	}

	ctx, sp := obs.StartSpan(ctx, "opt.OptimizeObject", obs.KV("level", level.String()))
	defer sp.End()

	st = newStats(level)
	out := &compile.Object{Funcs: make([]*compile.Func, 0, len(obj.Funcs))}
	for _, fn := range obj.Funcs {
		ofn, fst, err := Optimize(ctx, fn, level)
		st.Merge(fst)
		if err != nil {
			return nil, st, err
		}
		out.Funcs = append(out.Funcs, ofn)
	}
	for _, fn := range obj.Funcs {
		if err := EquivalentCtx(ctx, obj, out, fn.Name, diffVectors, diffSeed(fn.Name)); err != nil {
			return nil, st, fmt.Errorf("%s: %w", level, err)
		}
	}
	obs.AddCountL(ctx, "opt.funcs", int64(st.Funcs), obs.L("level", level.String()))
	obs.AddCountL(ctx, "opt.instrs.removed",
		int64(st.InstrsBefore-st.InstrsAfter), obs.L("level", level.String()))
	return out, st, nil
}

// diffSeed derives the deterministic differential-testing seed for a
// function name.
func diffSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

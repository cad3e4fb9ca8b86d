package opt

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"decompstudy/internal/compile"
	"decompstudy/internal/obs"
)

// diffMemSize is the machine memory used for differential runs — the
// interpreter default, so in-bounds addresses behave identically.
const diffMemSize = 1 << 16

// diffStepLimit bounds each differential execution. Both machines get the
// same budget; a one-sided hit is inconclusive (the optimized function
// executes a different instruction count), so that vector is skipped
// rather than reported as a disagreement.
const diffStepLimit = 200_000

// diffMem recycles the gate's machine memory across calls. Lazy machines
// fill every page before reading it, so a buffer needs no clearing.
var diffMem = sync.Pool{New: func() any { return new([2][diffMemSize]byte) }}

// Equivalent executes function name in both objects on vectors
// pseudorandom input vectors (deterministic per seed) and reports the
// first observable disagreement: differing fault behavior, differing
// results, or differing final memory. A nil return means no disagreement
// was observed.
//
// Each vector draws a key and the call arguments from a SplitMix64 stream
// seeded by seed. Memory is materialised a page at a time on first access
// (compile.NewLazyMachine): every 8-byte word of a page is a SplitMix64
// value of (key, address), so both machines see identical contents at
// every address they read without the gate writing 64 KiB per vector.
// After a run, every page either side touched is compared, materialising
// it on the other side if needed; pages neither touched are equal by
// construction. One machine pair is reused across all vectors, and its
// memory across calls.
func Equivalent(a, b *compile.Object, name string, vectors int, seed int64) error {
	return EquivalentCtx(context.Background(), a, b, name, vectors, seed)
}

// EquivalentCtx is Equivalent with telemetry: when the context carries an
// obs handle, each call adds its vector outcomes to
// opt.diff.vectors{result=agree|step_limit} and the pages it materialised
// to opt.diff.pages.
func EquivalentCtx(ctx context.Context, a, b *compile.Object, name string, vectors int, seed int64) error {
	fn, ok := a.Func0(name)
	if !ok {
		return fmt.Errorf("no function %q in original object: %w", name, ErrOpt)
	}
	var agree, stepLimit, pages int64
	defer func() {
		if obs.From(ctx) != nil {
			obs.AddCountL(ctx, "opt.diff.vectors", agree, obs.L("result", "agree"))
			obs.AddCountL(ctx, "opt.diff.vectors", stepLimit, obs.L("result", "step_limit"))
			obs.AddCount(ctx, "opt.diff.pages", pages)
		}
	}()

	r := splitmix(seed)
	var key diffKey
	fill := key.fill
	bufs := diffMem.Get().(*[2][diffMemSize]byte)
	defer diffMem.Put(bufs)
	ma := compile.NewLazyMachine(a, bufs[0][:], fill)
	mb := compile.NewLazyMachine(b, bufs[1][:], fill)
	ma.StepLimit = diffStepLimit
	mb.StepLimit = diffStepLimit
	args := make([]int64, fn.NParams)
	for v := 0; v < vectors; v++ {
		key = diffKey(r.next())
		for i := range args {
			args[i] = r.arg()
		}
		ma.Reset(fill)
		mb.Reset(fill)

		// A vector on which either side hits the step limit is skipped, so
		// the optimized side need not run once the original has.
		va, ea := ma.Call(name, args...)
		var vb int64
		var eb error
		if !compile.IsStepLimit(ea) {
			vb, eb = mb.Call(name, args...)
		}
		if compile.IsStepLimit(ea) || compile.IsStepLimit(eb) {
			stepLimit++
			pages += touchedPages(ma) + touchedPages(mb)
			continue
		}
		switch {
		case (ea != nil) != (eb != nil):
			return fmt.Errorf("differential mismatch in %s (args %v): original %s, optimized %s: %w",
				name, args, describe(va, ea), describe(vb, eb), ErrOpt)
		case ea == nil && va != vb:
			return fmt.Errorf("differential mismatch in %s (args %v): original returned %d, optimized %d: %w",
				name, args, va, vb, ErrOpt)
		case ea == nil:
			if off := firstMemDiff(ma, mb); off >= 0 {
				return fmt.Errorf("differential mismatch in %s (args %v): memories diverge at offset %#x: %w",
					name, args, off, ErrOpt)
			}
		}
		// Both faulted (non-step-limit): they agree the input is bad. The
		// exact message may differ (e.g. which of two dead divisions
		// trapped first), which is not an observable program behavior.
		agree++
		pages += touchedPages(ma) + touchedPages(mb)
	}
	return nil
}

// firstMemDiff compares every page either machine touched, materialising
// it on the other, and returns the first differing address or -1.
func firstMemDiff(ma, mb *compile.Machine) int {
	for p := 0; p < ma.NumPages(); p++ {
		if !ma.Touched(p) && !mb.Touched(p) {
			continue
		}
		pa, pb := ma.Page(p), mb.Page(p)
		if !bytes.Equal(pa, pb) {
			for i := range pa {
				if pa[i] != pb[i] {
					return p*compile.PageSize + i
				}
			}
		}
	}
	return -1
}

func touchedPages(m *compile.Machine) int64 {
	var n int64
	for p := 0; p < m.NumPages(); p++ {
		if m.Touched(p) {
			n++
		}
	}
	return n
}

// diffKey is one vector's memory key. Its fill method is the gate's page
// filler: the 8-byte word at address a is output a/8+1 of a SplitMix64
// stream seeded by the key, so contents depend only on (key, address).
type diffKey uint64

func (k *diffKey) fill(base int64, page []byte) {
	var word [8]byte
	for i := 0; i < len(page); i += 8 {
		binary.LittleEndian.PutUint64(word[:], mix64(uint64(*k)+(uint64(base+int64(i))/8+1)*golden))
		copy(page[i:], word[:])
	}
}

// splitmix is a SplitMix64 generator (Steele, Lea and Flood, OOPSLA 2014):
// next advances the state by the golden-ratio increment and mixes it.
type splitmix uint64

const golden = 0x9e3779b97f4a7c15

func (s *splitmix) next() uint64 {
	*s += golden
	return mix64(uint64(*s))
}

// mix64 is SplitMix64's output function, a bijection on uint64.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// arg draws one argument value, mixing magnitudes so small constants,
// in-bounds addresses, negatives, and wide values all occur.
func (s *splitmix) arg() int64 {
	kind, x := s.next()%4, s.next()
	switch kind {
	case 0:
		return int64(x % 16) // small counts and flags
	case 1:
		return int64(x % (diffMemSize - 64)) // plausible addresses
	case 2:
		return -int64(x % (1 << 20)) // negatives
	default:
		return int64(x) // full width
	}
}

func describe(v int64, err error) string {
	if err != nil {
		return fmt.Sprintf("faulted (%v)", err)
	}
	return fmt.Sprintf("returned %d", v)
}

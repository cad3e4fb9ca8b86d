package decomp_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
)

// structureInput is one mini-C translation unit of the structuring
// contract.
type structureInput struct {
	name, src string
	types     []string
}

// nestSource writes one function of depth nested ifs, each level updating
// an accumulator: the deep-nesting shape the served latency tail is made
// of, where set-based dominance was quadratic.
func nestSource(depth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "long nest%d(int a, int b) {\n  long x = b;\n", depth)
	for d := 0; d < depth; d++ {
		fmt.Fprintf(&b, "  if (a > %d) {\n  x = x + %d;\n", d, 1+d%9)
	}
	b.WriteString(strings.Repeat("  }\n", depth))
	b.WriteString("  return x;\n}\n")
	return b.String()
}

// structureInputs lists every corpus snippet, every training source, the
// examples/lintdemo programs, and nests of depth 5, 50 and 240.
func structureInputs(t *testing.T) []structureInput {
	t.Helper()
	var in []structureInput
	for _, sn := range corpus.Snippets() {
		in = append(in, structureInput{"snippet/" + sn.ID, sn.Source, sn.ExtraTypes})
	}
	for i, src := range corpus.TrainingSources() {
		in = append(in, structureInput{fmt.Sprintf("training/%d", i), src, nil})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "lintdemo", "*.c"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("examples/lintdemo sources: %v (found %d)", err, len(paths))
	}
	sort.Strings(paths)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, structureInput{"examples/" + filepath.Base(p), string(raw), nil})
	}
	for _, depth := range []int{5, 50, 240} {
		in = append(in, structureInput{fmt.Sprintf("nest/%d", depth), nestSource(depth), nil})
	}
	return in
}

// forEachFunc compiles every structure input at -O0, -O1 and -O2 and
// calls fn on each resulting function; a stage error is passed instead
// (with a nil function) so callers can fold it into their output.
func forEachFunc(t *testing.T, fn func(label string, f *compile.Func, err error)) {
	t.Helper()
	for _, in := range structureInputs(t) {
		for _, level := range []opt.Level{opt.O0, opt.O1, opt.O2} {
			label := fmt.Sprintf("%s@%s", in.name, level)
			file, err := csrc.Parse(in.src, in.types)
			if err != nil {
				fn(label, nil, err)
				continue
			}
			obj, err := compile.Compile(file)
			if err == nil {
				obj, _, err = opt.OptimizeObject(context.Background(), obj, level)
			}
			if err != nil {
				fn(label, nil, err)
				continue
			}
			for _, f := range obj.Funcs {
				fn(label+"/"+f.Name, f, nil)
			}
		}
	}
}

// liftedContractSHA256 is the sha256 of every structure input's lifted
// pseudo-C at -O0/-O1/-O2, recorded with the set-based post-dominator
// lifter before the dominator-tree engine replaced it.
const liftedContractSHA256 = "5a0ccdf935e07a93ec00507cf6bfd9489d7d2447a21be0994c9b90ee5bf9f57a"

func TestLiftedTextContract(t *testing.T) {
	h := sha256.New()
	funcs := 0
	forEachFunc(t, func(label string, f *compile.Func, err error) {
		fmt.Fprintf(h, "== %s\n", label)
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			return
		}
		d, err := decomp.LiftFunc(f)
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			return
		}
		funcs++
		h.Write([]byte(d.Source()))
	})
	got := hex.EncodeToString(h.Sum(nil))
	if got != liftedContractSHA256 {
		t.Errorf("lifted pseudo-C of %d functions hashes %s, want %s", funcs, got, liftedContractSHA256)
	}
}

// refPostDominators is the set-based post-dominator computation the
// lifter used before the dominator tree, kept as a differential oracle:
// iterative intersection of per-block sets on the reversed CFG with a
// virtual exit (-1), then the strict post-dominator that every other
// strict post-dominator post-dominates. It returns the ipdom map and the
// set of blocks that can reach a return; elsewhere the old rule's answer
// depended on map iteration order.
func refPostDominators(fn *compile.Func) (ipdom map[int]int, reachesExit map[int]bool) {
	const exit = -1
	succs := map[int][]int{}
	for _, b := range fn.Blocks {
		succs[b.ID] = b.Succs()
	}
	var ids []int
	visited := map[int]bool{}
	preds := map[int][]int{}
	var dfs func(id int)
	dfs = func(id int) {
		visited[id] = true
		ids = append(ids, id)
		for _, s := range succs[id] {
			preds[s] = append(preds[s], id)
			if !visited[s] {
				dfs(s)
			}
		}
	}
	dfs(fn.Blocks[0].ID)

	all := map[int]bool{exit: true}
	for _, id := range ids {
		all[id] = true
	}
	pdom := map[int]map[int]bool{exit: {exit: true}}
	for _, id := range ids {
		s := map[int]bool{}
		for n := range all {
			s[n] = true
		}
		pdom[id] = s
	}
	succsOf := func(id int) []int {
		if ss := succs[id]; len(ss) > 0 {
			return ss
		}
		return []int{exit}
	}
	for changed := true; changed; {
		changed = false
		for i := len(ids) - 1; i >= 0; i-- {
			id := ids[i]
			var inter map[int]bool
			for _, s := range succsOf(id) {
				sp := pdom[s]
				if inter == nil {
					inter = map[int]bool{}
					for n := range sp {
						inter[n] = true
					}
					continue
				}
				for n := range inter {
					if !sp[n] {
						delete(inter, n)
					}
				}
			}
			inter[id] = true
			if len(inter) != len(pdom[id]) {
				pdom[id], changed = inter, true
				continue
			}
			for n := range inter {
				if !pdom[id][n] {
					pdom[id], changed = inter, true
					break
				}
			}
		}
	}
	ipdom = map[int]int{}
	for _, id := range ids {
		best := exit
		for cand := range pdom[id] {
			if cand == id || cand == exit {
				continue
			}
			ok := true
			for other := range pdom[id] {
				if other != id && other != cand && other != exit && !pdom[cand][other] {
					ok = false
					break
				}
			}
			if ok {
				best = cand
				break
			}
		}
		ipdom[id] = best
	}

	reachesExit = map[int]bool{}
	var work []int
	for _, id := range ids {
		if len(succs[id]) == 0 {
			reachesExit[id] = true
			work = append(work, id)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range preds[id] {
			if !reachesExit[p] {
				reachesExit[p] = true
				work = append(work, p)
			}
		}
	}
	return ipdom, reachesExit
}

// refDominators is the forward dominator computation the analysis and the
// SSA builder used before the dominator tree: a bitset must-dataflow on
// the shared solver, then idom(b) = the strict dominator with the largest
// set. It returns the sets (unreachable blocks keep the universal set) and
// the idom slice (-1 for entry and unreachable blocks).
func refDominators(g *analysis.Graph) ([]analysis.Bits, []int) {
	n := g.NumBlocks()
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return nil, idom
	}
	sol := analysis.Solve(g, analysis.Forward, analysis.BitsLattice(n, true, analysis.NewBits(n)),
		func(b *compile.Block, in analysis.Bits) analysis.Bits {
			in.Set(g.Index[b.ID])
			return in
		})
	for b := 1; b < n; b++ {
		if !g.Reach.Has(b) {
			continue
		}
		bestSize := -1
		sol.Out[b].ForEach(func(c int) {
			if c == b || !g.Reach.Has(c) {
				return
			}
			if size := sol.Out[c].Count(); size > bestSize {
				idom[b], bestSize = c, size
			}
		})
	}
	return sol.Out, idom
}

// checkDominance compares the lifter's ipdom and analysis.Dominators with
// the set-based references on one function: ipdom on every block that can
// reach a return, Idom on every block, Dominates on every block pair, and
// the derived back edges and loop depths.
func checkDominance(t *testing.T, label string, fn *compile.Func) {
	t.Helper()
	got, err := decomp.IPDom(fn)
	if err != nil {
		t.Fatalf("%s: analyze: %v", label, err)
	}
	want, reachesExit := refPostDominators(fn)
	for id, w := range want {
		if reachesExit[id] && got[id] != w {
			t.Errorf("%s: ipdom(b%d) = %d, set-based reference %d", label, id, got[id], w)
		}
	}

	g := analysis.NewGraph(fn)
	d := analysis.Dominators(g)
	sets, idom := refDominators(g)
	n := g.NumBlocks()
	for b := 0; b < n; b++ {
		if d.Idom[b] != idom[b] {
			t.Errorf("%s: Idom[%d] = %d, set-based reference %d", label, b, d.Idom[b], idom[b])
		}
		for a := 0; a < n; a++ {
			if got, want := d.Dominates(a, b), sets[b].Has(a); got != want {
				t.Fatalf("%s: Dominates(%d, %d) = %v, set-based reference %v", label, a, b, got, want)
			}
		}
	}
	var backEdges [][2]int
	for u := 0; u < n; u++ {
		for _, h := range g.Succs[u] {
			if g.Reach.Has(u) && sets[u].Has(h) {
				backEdges = append(backEdges, [2]int{u, h})
			}
		}
	}
	if fmt.Sprint(d.BackEdges) != fmt.Sprint(backEdges) {
		t.Errorf("%s: BackEdges = %v, set-based reference %v", label, d.BackEdges, backEdges)
	}
}

func TestDominanceMatchesSetReferenceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 3000; i++ {
		checkDominance(t, fmt.Sprintf("GenFunc #%d", i), analysis.GenFunc(rng))
	}
}

func TestDominanceMatchesSetReferenceOnCorpus(t *testing.T) {
	forEachFunc(t, func(label string, f *compile.Func, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkDominance(t, label, f)
	})
}

// TestLiftNoExitLoopPinned pins a function whose loop never exits: its
// conditional has no post-dominator (ipdom -1), where the set-based rule
// picked whichever loop block map iteration offered first.
func TestLiftNoExitLoopPinned(t *testing.T) {
	file, err := csrc.Parse(`
void spin(int *p, int n) {
  int i = 0;
  while (1) {
    if (p[i] > n) {
      i = i + 1;
    } else {
      p[i] = n;
    }
  }
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := compile.Compile(file)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decomp.LiftFunc(obj.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	const want = `void __fastcall spin(__int64 a1, int a2) {
  int v3; // [rsp+28h] [rbp-18h]
  v3 = 0;
  while ( 1 ) {
    if ( *(_DWORD *)(4LL * v3 + a1) > a2 ) {
      v3 = v3 + 1;
    } else {
      *(_DWORD *)(4LL * v3 + a1) = a2;
    }
  }
  return;
}
`
	if got := d.Source(); got != want {
		t.Errorf("lifted no-exit loop changed:\n%s\nwant:\n%s", got, want)
	}
}

package decomp

import (
	"errors"
	"strings"
	"testing"

	"decompstudy/internal/compile"
	"decompstudy/internal/csrc"
)

func lift(t *testing.T, src string, extraTypes []string) map[string]*Decompiled {
	t.Helper()
	f, err := csrc.Parse(src, extraTypes)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	obj, err := compile.Compile(f)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ds, err := Lift(obj)
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	out := map[string]*Decompiled{}
	for _, d := range ds {
		out[d.Pseudo.Name] = d
	}
	return out
}

const aeekLike = `
typedef struct array {
  void *data;
  data_unset **sorted;
  uint32_t used;
  uint32_t size;
} array;

int array_get_index(array *a, const char *k, uint32_t klen) {
  return 0;
}

data_unset *array_extract_element_klen(array *a, const char *k, uint32_t klen) {
  int ndx = array_get_index(a, k, klen);
  if (ndx < 0) {
    return 0;
  }
  data_unset *entry = a->sorted[ndx];
  return entry;
}
`

func TestLiftAEEKIdiom(t *testing.T) {
	ds := lift(t, aeekLike, []string{"data_unset"})
	d := ds["array_extract_element_klen"]
	if d == nil {
		t.Fatal("array_extract_element_klen not lifted")
	}
	src := d.Source()

	// The Hex-Rays surface idiom the participants saw (paper Fig. 7a).
	for _, want := range []string{
		"__fastcall array_extract_element_klen(",
		"__int64 a1",      // struct pointer widened
		"unsigned int a3", // uint32_t param
		"if ( v4 < 0 )",
		"return 0LL;",
		"*(_QWORD *)(8LL * ", // scaled element access through the sorted field
		"*(_QWORD *)(a1 + 8)",
		"// [rsp+",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("decompiled output missing %q:\n%s", want, src)
		}
	}
	// Original names must be gone from the pseudo-C body (the function
	// name itself legitimately survives in the signature).
	body := src[strings.Index(src, "{"):]
	for _, gone := range []string{"ndx", "entry", "klen", "sorted"} {
		if strings.Contains(body, gone) {
			t.Errorf("original name %q leaked into decompiled output:\n%s", gone, src)
		}
	}
}

func TestLiftNameMapAlignment(t *testing.T) {
	ds := lift(t, aeekLike, []string{"data_unset"})
	d := ds["array_extract_element_klen"]
	if len(d.NameMap) != 5 { // 3 params + 2 locals
		t.Fatalf("NameMap has %d entries, want 5: %+v", len(d.NameMap), d.NameMap)
	}
	if d.NameMap[0].Symbol.OrigName != "a" || d.NameMap[0].NewName != "a1" {
		t.Errorf("NameMap[0] = %+v, want a→a1", d.NameMap[0])
	}
	if d.NameMap[2].Symbol.OrigName != "klen" || d.NameMap[2].NewName != "a3" {
		t.Errorf("NameMap[2] = %+v, want klen→a3", d.NameMap[2])
	}
	for _, r := range d.NameMap {
		if r.NewType == "" {
			t.Errorf("entry %+v missing recovered type", r)
		}
	}
}

func TestLiftWhileLoop(t *testing.T) {
	ds := lift(t, `
int count_down(int n) {
  int total = 0;
  while (n > 0) {
    total += n;
    n -= 1;
  }
  return total;
}
`, nil)
	src := ds["count_down"].Source()
	if !strings.Contains(src, "while ( ") {
		t.Errorf("missing while loop:\n%s", src)
	}
	if !strings.Contains(src, "return") {
		t.Errorf("missing return:\n%s", src)
	}
}

func TestLiftForLoopBecomesWhile(t *testing.T) {
	ds := lift(t, `
int sum_n(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s += i;
  }
  return s;
}
`, nil)
	src := ds["sum_n"].Source()
	if !strings.Contains(src, "while ( ") {
		t.Errorf("for should decompile to while:\n%s", src)
	}
}

func TestLiftBreakContinue(t *testing.T) {
	ds := lift(t, `
int scan(int n) {
  int found = 0;
  while (n > 0) {
    n -= 1;
    if (n == 7) {
      found = 1;
      break;
    }
    if (n % 2 == 0) {
      continue;
    }
    found += 1;
  }
  return found;
}
`, nil)
	src := ds["scan"].Source()
	if !strings.Contains(src, "break;") {
		t.Errorf("missing break:\n%s", src)
	}
	if !strings.Contains(src, "continue;") {
		t.Errorf("missing continue:\n%s", src)
	}
}

func TestLiftIfElse(t *testing.T) {
	ds := lift(t, `
int pick(int a, int b) {
  int m;
  if (a > b) {
    m = a;
  } else {
    m = b;
  }
  return m;
}
`, nil)
	src := ds["pick"].Source()
	if !strings.Contains(src, "} else {") {
		t.Errorf("missing else:\n%s", src)
	}
}

func TestLiftFunctionPointerCall(t *testing.T) {
	ds := lift(t, `
long postorder(void *t, long (*visit)(void *node, void *aux), void *aux) {
  long ret = visit(t, aux);
  return ret;
}
`, nil)
	src := ds["postorder"].Source()
	// Indirect call through the renamed parameter.
	if !strings.Contains(src, "a2(a1, a3)") {
		t.Errorf("missing indirect call a2(a1, a3):\n%s", src)
	}
	// Function-pointer arity recovered from the call site.
	if !strings.Contains(src, "__int64 (*a2)(__int64, __int64)") {
		t.Errorf("missing recovered function-pointer type:\n%s", src)
	}
}

func TestLiftCharPointerParam(t *testing.T) {
	ds := lift(t, `
void copy_byte(char *dst, const char *src, int i) {
  dst[i] = src[i];
}
`, nil)
	src := ds["copy_byte"].Source()
	if !strings.Contains(src, "_BYTE *a1") {
		t.Errorf("char* should decompile to _BYTE *:\n%s", src)
	}
	if !strings.Contains(src, "*(_BYTE *)") {
		t.Errorf("byte store should use _BYTE cast:\n%s", src)
	}
}

func TestLiftOutputIsParseable(t *testing.T) {
	// The decompiler's pseudo-C must itself be valid input for our parser
	// (participants' snippets were re-tokenized for codeBLEU).
	ds := lift(t, aeekLike, []string{"data_unset"})
	for name, d := range ds {
		src := csrc.PrintFunction(d.Pseudo, nil)
		if _, err := csrc.Parse(src, nil); err != nil {
			t.Errorf("decompiled %s is not parseable: %v\n%s", name, err, src)
		}
	}
}

func TestLiftVoidReturn(t *testing.T) {
	ds := lift(t, `
void touch(int *p) {
  *p = 1;
}
`, nil)
	src := ds["touch"].Source()
	if !strings.Contains(src, "void __fastcall touch") {
		t.Errorf("missing void return:\n%s", src)
	}
	if !strings.Contains(src, "*(_DWORD *)a1 = 1") {
		t.Errorf("int store should use _DWORD cast:\n%s", src)
	}
}

func TestLiftNestedLoops(t *testing.T) {
	ds := lift(t, `
int grid(int n, int m) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      total += i * j;
    }
  }
  return total;
}
`, nil)
	src := ds["grid"].Source()
	if strings.Count(src, "while ( ") != 2 {
		t.Errorf("expected two while loops:\n%s", src)
	}
}

func TestLiftEarlyReturns(t *testing.T) {
	ds := lift(t, `
int classify(int x) {
  if (x < 0) {
    return -1;
  }
  if (x == 0) {
    return 0;
  }
  return 1;
}
`, nil)
	src := ds["classify"].Source()
	if got := strings.Count(src, "return"); got != 3 {
		t.Errorf("returns = %d, want 3:\n%s", got, src)
	}
}

func TestLiftTernary(t *testing.T) {
	ds := lift(t, `
int absval(int x) {
  return x > 0 ? x : -x;
}
`, nil)
	src := ds["absval"].Source()
	// Ternaries decompile to if/else over a materialized temp.
	if !strings.Contains(src, "if ( ") {
		t.Errorf("ternary should produce a conditional:\n%s", src)
	}
}

func TestStackCommentProgression(t *testing.T) {
	c0 := stackComment(0)
	c1 := stackComment(1)
	if c0 == c1 {
		t.Errorf("stack comments should differ: %q vs %q", c0, c1)
	}
	if !strings.HasPrefix(c0, "[rsp+28h]") {
		t.Errorf("first slot = %q, want [rsp+28h] prefix", c0)
	}
}

// parseBack re-parses decompiled output (shared by the extension tests).
func parseBack(src string) (interface{}, error) {
	return csrc.Parse(src, nil)
}

func TestLiftEmptyBlockIsStructureError(t *testing.T) {
	// Hand-built IR with a block that has no terminator: the lifter must
	// reject it with ErrStructure naming the block, not panic or misread
	// the zero Instr Block.Term returns.
	fn := &compile.Func{
		Name: "broken", NTemps: 0, RetWidth: 0,
		Blocks: []*compile.Block{
			{ID: 0, Instrs: []compile.Instr{{Op: compile.OpBr, Dst: -1, Target: 1}}},
			{ID: 1},
		},
	}
	_, err := LiftFunc(fn)
	if err == nil {
		t.Fatal("LiftFunc on empty-block IR succeeded, want error")
	}
	if !errors.Is(err, ErrStructure) {
		t.Errorf("error = %v, want ErrStructure", err)
	}
	if !strings.Contains(err.Error(), "b1") {
		t.Errorf("error %q should name the empty block b1", err)
	}
}

func TestLiftMalformedIRIsStructureError(t *testing.T) {
	// Hand-built IR the verifier would reject must come back as
	// ErrStructure naming the fault, never as a panic.
	br := func(target int) compile.Instr { return compile.Instr{Op: compile.OpBr, Dst: -1, Target: target} }
	ret := func(a compile.Operand) compile.Instr { return compile.Instr{Op: compile.OpRet, Dst: -1, A: a} }
	for _, tc := range []struct {
		name, want string
		blocks     []*compile.Block
	}{
		{"branch to a missing block", "b0 branches to a missing block", []*compile.Block{
			{ID: 0, Instrs: []compile.Instr{br(7)}},
		}},
		{"negative temp", "negative temp t-1", []*compile.Block{
			{ID: 0, Instrs: []compile.Instr{ret(compile.Temp(-1))}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LiftFunc(&compile.Func{Name: "broken", NTemps: 1, RetWidth: 8, Blocks: tc.blocks})
			if !errors.Is(err, ErrStructure) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want ErrStructure mentioning %q", err, tc.want)
			}
		})
	}
}

package compile_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
)

const lazyMemSize = 1 << 16

// testFill returns a deterministic page filler for one vector key.
func testFill(key uint64) compile.PageFill {
	return func(base int64, page []byte) {
		for i := range page {
			x := (key ^ uint64(base+int64(i))) * 0x9e3779b97f4a7c15
			page[i] = byte(x >> 56)
		}
	}
}

// pointerFill returns a filler whose aligned 8-byte words are small
// in-bounds addresses, so pointer-chasing code runs instead of faulting
// on its first load.
func pointerFill(key uint64) compile.PageFill {
	return func(base int64, page []byte) {
		for i := 0; i < len(page); i += 8 {
			x := (key ^ uint64(base+int64(i))) * 0x9e3779b97f4a7c15
			binary.LittleEndian.PutUint64(page[i:], (x>>40)%(lazyMemSize/2)&^7)
		}
	}
}

// prefilled is the eager reference: a zero-filled machine whose every
// page has been written with the filler's bytes before the run.
func prefilled(obj *compile.Object, fill compile.PageFill) *compile.Machine {
	m := compile.NewMachine(obj, lazyMemSize)
	for p := 0; p < m.NumPages(); p++ {
		fill(int64(p*compile.PageSize), m.Page(p))
	}
	return m
}

// corpusObjects compiles every study snippet, in corpus order.
func corpusObjects(t *testing.T) []*compile.Object {
	t.Helper()
	var objs []*compile.Object
	for _, s := range corpus.Snippets() {
		f, err := csrc.Parse(s.Source, s.ExtraTypes)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		obj, err := compile.Compile(f)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		objs = append(objs, obj)
	}
	return objs
}

// TestLazyMemoryMatchesPrefilled runs every corpus function and 500
// generated functions on a lazy machine (reused across vectors through
// Reset, over a buffer full of junk) and on an eager machine pre-filled
// with the same filler's bytes: results, faults and final memory must be
// equal on every vector.
func TestLazyMemoryMatchesPrefilled(t *testing.T) {
	type target struct {
		label string
		obj   *compile.Object
		fn    *compile.Func
	}
	var targets []target
	for _, obj := range corpusObjects(t) {
		for _, fn := range obj.Funcs {
			targets = append(targets, target{"corpus/" + fn.Name, obj, fn})
		}
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		fn := analysis.GenFunc(r)
		targets = append(targets, target{fmt.Sprintf("GenFunc#%d", i), &compile.Object{Funcs: []*compile.Func{fn}}, fn})
	}

	junk := bytes.Repeat([]byte{0xa5}, lazyMemSize)
	for _, tg := range targets {
		lazy := compile.NewLazyMachine(tg.obj, append([]byte(nil), junk...), testFill(0))
		for v := 0; v < 4; v++ {
			fill := testFill(r.Uint64())
			if v%2 == 1 {
				fill = pointerFill(r.Uint64())
			}
			args := make([]int64, tg.fn.NParams)
			for i := range args {
				if r.Intn(2) == 0 {
					args[i] = int64(r.Intn(lazyMemSize/2)) &^ 7
				} else {
					args[i] = int64(r.Intn(32))
				}
			}
			eager := prefilled(tg.obj, fill)
			lazy.Reset(fill)
			eager.StepLimit, lazy.StepLimit = 20_000, 20_000

			ve, ee := eager.Call(tg.fn.Name, args...)
			vl, el := lazy.Call(tg.fn.Name, args...)
			if fmt.Sprint(ee) != fmt.Sprint(el) || ve != vl {
				t.Fatalf("%s args %v: eager (%d, %v) vs lazy (%d, %v)", tg.label, args, ve, ee, vl, el)
			}
			if !bytes.Equal(eager.Mem(), lazy.Mem()) {
				t.Fatalf("%s args %v: final memories differ", tg.label, args)
			}
		}
	}
}

// TestLazyBuiltinsStraddlingPages: memset and memcpy ranges that cross a
// page boundary materialise every page they cover and no other, and
// zero-length calls touch nothing.
func TestLazyBuiltinsStraddlingPages(t *testing.T) {
	const ps = compile.PageSize
	fill := testFill(5)
	cases := []struct {
		name  string
		call  string
		args  []int64
		pages []int
	}{
		{"memset", "memset", []int64{ps - 4, 7, 8}, []int{0, 1}},
		{"memcpy", "memcpy", []int64{5*ps - 2, 2*ps - 3, 6}, []int{1, 2, 4, 5}},
		{"memmove", "memmove", []int64{3*ps + 1, 3*ps - 1, 4}, []int{2, 3}},
		{"memset empty", "memset", []int64{ps - 4, 7, 0}, nil},
		{"memcpy empty", "memcpy", []int64{ps - 4, 9 * ps, 0}, nil},
	}
	for _, tc := range cases {
		obj := &compile.Object{}
		lazy := compile.NewLazyMachine(obj, make([]byte, lazyMemSize), fill)
		eager := prefilled(obj, fill)
		if _, err := lazy.Call(tc.call, tc.args...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := eager.Call(tc.call, tc.args...); err != nil {
			t.Fatalf("%s eager: %v", tc.name, err)
		}
		var touched []int
		for p := 0; p < lazy.NumPages(); p++ {
			if lazy.Touched(p) {
				touched = append(touched, p)
			}
		}
		if fmt.Sprint(touched) != fmt.Sprint(tc.pages) {
			t.Errorf("%s: touched pages %v, want %v", tc.name, touched, tc.pages)
		}
		if !bytes.Equal(lazy.Mem(), eager.Mem()) {
			t.Errorf("%s: lazy memory differs from the pre-filled reference", tc.name)
		}
	}
}

package analysis

import (
	"reflect"
	"testing"

	"decompstudy/internal/compile"
)

func TestBitsBasicOps(t *testing.T) {
	b := NewBits(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Has(i) {
			t.Errorf("Has(%d) = false after Set", i)
		}
	}
	if got := b.Count(); got != 4 {
		t.Errorf("Count() = %d, want 4", got)
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Has(64) = true after Clear")
	}

	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if want := []int{0, 63, 129}; !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach order = %v, want %v", got, want)
	}
}

func TestBitsSetAlgebra(t *testing.T) {
	a := NewBits(100)
	a.Set(1)
	a.Set(70)
	b := NewBits(100)
	b.Set(70)
	b.Set(99)

	u := a.Clone()
	if !u.Union(b) {
		t.Error("Union should report a change")
	}
	if u.Union(b) {
		t.Error("second Union should be a no-op")
	}
	if u.Count() != 3 || !u.Has(1) || !u.Has(70) || !u.Has(99) {
		t.Errorf("union wrong: %v", u)
	}

	i := a.Clone()
	if !i.Intersect(b) {
		t.Error("Intersect should report a change")
	}
	if i.Count() != 1 || !i.Has(70) {
		t.Errorf("intersection wrong: count=%d", i.Count())
	}

	d := a.Clone()
	d.AndNot(b)
	if d.Count() != 1 || !d.Has(1) {
		t.Errorf("AndNot wrong: count=%d", d.Count())
	}

	if !a.Equal(a.Clone()) {
		t.Error("Equal(clone) = false")
	}
	if a.Equal(b) {
		t.Error("Equal of distinct sets = true")
	}

	f := NewBits(67)
	f.Fill(67)
	if f.Count() != 67 {
		t.Errorf("Fill(67).Count() = %d", f.Count())
	}
}

func TestNewGraphDiamond(t *testing.T) {
	g := NewGraph(diamond())
	if g.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", g.NumBlocks())
	}
	wantSuccs := [][]int{{1, 2}, {3}, {3}, nil}
	if !reflect.DeepEqual(g.Succs, wantSuccs) {
		t.Errorf("Succs = %v, want %v", g.Succs, wantSuccs)
	}
	wantPreds := [][]int{nil, {0}, {0}, {1, 2}}
	if !reflect.DeepEqual(g.Preds, wantPreds) {
		t.Errorf("Preds = %v, want %v", g.Preds, wantPreds)
	}
	if g.Reach.Count() != 4 {
		t.Errorf("Reach.Count = %d, want 4", g.Reach.Count())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if len(g.RPO) != 4 || g.RPO[0] != 0 || g.RPO[3] != 3 {
		t.Errorf("RPO = %v, want entry first and join last", g.RPO)
	}
}

func TestNewGraphUnreachableAndDangling(t *testing.T) {
	// b1 is unreachable; b0's branch to b9 does not exist.
	fn := tfn(0, 1,
		tb(0, mov(0, compile.Const(1)), condbr(compile.Temp(0), 9, 0)),
		tb(1, ret(compile.Const(0))),
	)
	g := NewGraph(fn)
	if g.Reach.Has(1) {
		t.Error("b1 should be unreachable")
	}
	// The dangling edge to b9 is dropped, the self-edge kept.
	if want := []int{0}; !reflect.DeepEqual(g.Succs[0], want) {
		t.Errorf("Succs[0] = %v, want %v", g.Succs[0], want)
	}
}

func TestNewGraphDuplicateIDFirstWins(t *testing.T) {
	fn := tfn(0, 0,
		tb(0, br(1)),
		tb(1, ret(compile.Const(0))),
		tb(1, ret(compile.Const(1))),
	)
	g := NewGraph(fn)
	if g.Index[1] != 1 {
		t.Errorf("Index[1] = %d, want 1 (first block with the ID)", g.Index[1])
	}
}

func TestUsedTempsAndDefTemp(t *testing.T) {
	call := compile.Instr{
		Op: compile.OpCall, Dst: 5,
		Callee: compile.Temp(2),
		Args:   []compile.Operand{compile.Temp(3), compile.Const(7), compile.Temp(4)},
	}
	if got, want := usedTemps(call, nil), []int{2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("usedTemps(call) = %v, want %v", got, want)
	}
	if got := defTemp(call); got != 5 {
		t.Errorf("defTemp(call) = %d, want 5", got)
	}

	st := store(compile.Temp(0), compile.Temp(1), 8)
	if got, want := usedTemps(st, nil), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("usedTemps(store) = %v, want %v", got, want)
	}
	if got := defTemp(st); got != -1 {
		t.Errorf("defTemp(store) = %d, want -1", got)
	}

	// Terminators never define, whatever Dst holds.
	r := ret(compile.Temp(0))
	r.Dst = 3
	if got := defTemp(r); got != -1 {
		t.Errorf("defTemp(ret with Dst=3) = %d, want -1", got)
	}
}

func TestBitsFillMatchesPerBitLoop(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		for _, dirty := range []bool{false, true} {
			got, want := NewBits(130), NewBits(130)
			if dirty {
				// Bits already present, inside and beyond [0, n), must
				// survive: Fill only adds.
				for _, i := range []int{0, 62, 64, 100, 129} {
					got.Set(i)
					want.Set(i)
				}
			}
			got.Fill(n)
			for i := 0; i < n; i++ {
				want.Set(i)
			}
			if !got.Equal(want) {
				t.Errorf("Fill(%d) dirty=%v = %x, per-bit loop %x", n, dirty, got, want)
			}
		}
	}
}

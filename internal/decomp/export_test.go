package decomp

import "decompstudy/internal/compile"

// IPDom exposes the lifter's immediate post-dominators by block ID (-1 for
// the virtual exit) to the external differential tests.
func IPDom(fn *compile.Func) (map[int]int, error) {
	g, err := analyze(fn)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(g.ipdom))
	for i, d := range g.ipdom {
		out[g.Blocks[i].ID] = -1
		if d >= 0 {
			out[g.Blocks[i].ID] = g.Blocks[d].ID
		}
	}
	return out, nil
}

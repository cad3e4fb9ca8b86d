package csrc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"decompstudy/internal/obs"
)

// nestedIfs is depth nested `if (a > k) {` statements around one
// assignment, the served deep-nesting shape.
func nestedIfs(depth int) string {
	return "long f(int a) {\n  long x = 0;\n" +
		strings.Repeat("  if (a > 1) {\n  x = x + 1;\n", depth) +
		strings.Repeat("  }\n", depth) + "  return x;\n}\n"
}

func TestParseNestingLimits(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		reject    bool
	}{
		{"10^6 logical nots", "int f(int a){ return " + strings.Repeat("!", 1_000_000) + "a; }", true},
		{"1000 logical nots", "int f(int a){ return " + strings.Repeat("!", 1000) + "a; }", false},
		{"600 nested parens", "int f(int a){ return " + strings.Repeat("(", 600) + "a" + strings.Repeat(")", 600) + "; }", true},
		{"500 nested parens", "int f(int a){ return " + strings.Repeat("(", 500) + "a" + strings.Repeat(")", 500) + "; }", false},
		{"2000-operator chain", "int f(int a){ return a" + strings.Repeat(" + a", 2000) + "; }", true},
		{"1000-operator chain", "int f(int a){ return a" + strings.Repeat(" + a", 1000) + "; }", false},
		{"2000 chained assignments", "int f(int a){ " + strings.Repeat("a = ", 2000) + "1; return a; }", true},
		{"depth-600 if nest", nestedIfs(600), true},
		{"depth-260 if nest", nestedIfs(260), false},
		{"1100 nested blocks", "int f(int a){ " + strings.Repeat("{", 1100) + strings.Repeat("}", 1100) + " return a; }", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			_, err := ParseCtx(obs.With(context.Background(), o), tc.src, nil)
			rejects := o.Metrics.Counter("csrc.parse.limit_rejects").Value()
			if !tc.reject {
				if err != nil || rejects != 0 {
					t.Fatalf("err = %v, limit_rejects = %d; want a clean parse", err, rejects)
				}
				return
			}
			if !errors.Is(err, ErrLimit) || !errors.Is(err, ErrParse) {
				t.Fatalf("err = %v, want ErrLimit and ErrParse", err)
			}
			if rejects != 1 {
				t.Errorf("limit_rejects = %d, want 1", rejects)
			}
		})
	}
}

// TestParseLimitIsPerExpression checks that depth is released when an
// expression or statement closes: many sibling deep expressions and nests
// parse even though their sum is far past the limits.
func TestParseLimitIsPerExpression(t *testing.T) {
	stmt := "  a = " + strings.Repeat("!", 900) + "a;\n"
	src := "int f(int a) {\n" + strings.Repeat(stmt, 10) + strings.Repeat("  if (a) { a = a + 1; }\n", 2000) + "  return a;\n}\n"
	if _, err := Parse(src, nil); err != nil {
		t.Fatal(err)
	}
}

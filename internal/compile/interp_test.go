package compile

import (
	"errors"
	"testing"

	"decompstudy/internal/csrc"
)

func machineFor(t *testing.T, src string, extra []string) *Machine {
	t.Helper()
	f, err := csrc.Parse(src, extra)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	obj, err := Compile(f)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return NewMachine(obj, 1<<12)
}

func TestInterpArithmetic(t *testing.T) {
	m := machineFor(t, `
int calc(int a, int b) {
  return (a + b) * 3 - a % 7;
}
`, nil)
	got, err := m.Call("calc", 10, 4)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	want := int64((10+4)*3 - 10%7)
	if got != want {
		t.Errorf("calc(10,4) = %d, want %d", got, want)
	}
}

func TestInterpControlFlow(t *testing.T) {
	m := machineFor(t, `
int collatz_steps(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2 == 0) {
      n = n / 2;
    } else {
      n = 3 * n + 1;
    }
    steps = steps + 1;
  }
  return steps;
}
`, nil)
	got, err := m.Call("collatz_steps", 27)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != 111 {
		t.Errorf("collatz_steps(27) = %d, want 111", got)
	}
}

func TestInterpRecursion(t *testing.T) {
	m := machineFor(t, `
long fib(long n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
`, nil)
	got, err := m.Call("fib", 15)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestInterpMemory(t *testing.T) {
	m := machineFor(t, `
long sum_array(long *xs, int n) {
  long total = 0;
  for (int i = 0; i < n; i++) {
    total += xs[i];
  }
  return total;
}
`, nil)
	// Lay out 4 int64s at address 64.
	vals := []int64{3, 5, 7, 11}
	for i, v := range vals {
		for b := 0; b < 8; b++ {
			m.Mem()[64+8*i+b] = byte(v >> (8 * b))
		}
	}
	got, err := m.Call("sum_array", 64, 4)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != 26 {
		t.Errorf("sum_array = %d, want 26", got)
	}
}

func TestInterpTwosComplementSnippet(t *testing.T) {
	// Execute the actual TC study snippet on the question's inputs: the
	// ground-truth answer used to grade TC-Q1.
	m := machineFor(t, `
void twos_complement(unsigned char *dst, const unsigned char *src, size_t len, unsigned char pad) {
  unsigned int carry = pad & 1;
  if (len == 0) {
    return;
  }
  size_t i = len;
  while (i > 0) {
    i = i - 1;
    unsigned int b = src[i] ^ pad;
    b = b + carry;
    dst[i] = b & 255;
    carry = b >> 8;
  }
}
`, nil)
	// src = {0x01, 0x00} at 16, dst at 32, pad = 0xff.
	m.Mem()[16] = 0x01
	m.Mem()[17] = 0x00
	if _, err := m.Call("twos_complement", 32, 16, 2, 0xff); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if m.Mem()[32] != 0xff || m.Mem()[33] != 0x00 {
		t.Errorf("dst = {%#x, %#x}, want {0xff, 0x00} (the TC-Q1 answer)", m.Mem()[32], m.Mem()[33])
	}
}

func TestInterpMemmoveBuiltin(t *testing.T) {
	m := machineFor(t, `
void shift_left(long *xs, int n) {
  memmove(xs, xs + 1, (n - 1) * sizeof(long));
}
`, nil)
	for i, v := range []int64{10, 20, 30} {
		for b := 0; b < 8; b++ {
			m.Mem()[8*i+b] = byte(v >> (8 * b))
		}
	}
	if _, err := m.Call("shift_left", 0, 3); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if m.Mem()[0] != 20 || m.Mem()[8] != 30 {
		t.Errorf("after shift: mem[0]=%d mem[8]=%d, want 20, 30", m.Mem()[0], m.Mem()[8])
	}
}

func TestInterpFaults(t *testing.T) {
	m := machineFor(t, `
int crash_div(int a) {
  return 100 / a;
}
long wild_load(long p) {
  return *(long *)p;
}
int spin(void) {
  while (1) { }
  return 0;
}
`, nil)
	if _, err := m.Call("crash_div", 0); !errors.Is(err, ErrExec) {
		t.Errorf("div by zero: err = %v, want ErrExec", err)
	}
	if _, err := m.Call("wild_load", 1<<40); !errors.Is(err, ErrExec) {
		t.Errorf("wild load: err = %v, want ErrExec", err)
	}
	m.StepLimit = 10_000
	if _, err := m.Call("spin"); !errors.Is(err, ErrExec) {
		t.Errorf("infinite loop: err = %v, want ErrExec", err)
	}
	if _, err := m.Call("nonexistent"); !errors.Is(err, ErrExec) {
		t.Errorf("undefined function: err = %v, want ErrExec", err)
	}
	if _, err := m.Call("crash_div", 1, 2, 3); !errors.Is(err, ErrExec) {
		t.Errorf("arity mismatch: err = %v, want ErrExec", err)
	}
}

func TestInterpReturnTruncation(t *testing.T) {
	m := machineFor(t, `
char low_byte(int x) {
  return x;
}
unsigned char low_ubyte(int x) {
  return x;
}
`, nil)
	got, err := m.Call("low_byte", 0x1FF)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != -1 { // 0xFF as signed char
		t.Errorf("low_byte(0x1FF) = %d, want -1", got)
	}
	got, err = m.Call("low_ubyte", 0x1FF)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != 255 {
		t.Errorf("low_ubyte(0x1FF) = %d, want 255", got)
	}
}

// TestInterpAddressOverflowFaults: addresses and lengths whose end wraps
// past the int64 limit are out-of-bounds faults, not index panics.
func TestInterpAddressOverflowFaults(t *testing.T) {
	m := machineFor(t, `
long wild_load(long p) {
  return *(long *)p;
}
void wild_store(long p) {
  *(long *)p = 1;
}
`, nil)
	const top = 1<<63 - 3
	for _, tc := range []struct {
		name string
		args []int64
	}{
		{"wild_load", []int64{top}},
		{"wild_store", []int64{top}},
		{"memcpy", []int64{16, 32, top}},
		{"memmove", []int64{top, 32, 8}},
		{"memset", []int64{16, 0, top}},
	} {
		if _, err := m.Call(tc.name, tc.args...); !errors.Is(err, ErrExec) {
			t.Errorf("%s%v: err = %v, want ErrExec", tc.name, tc.args, err)
		}
	}
}

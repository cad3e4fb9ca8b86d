package compile

import (
	"errors"
	"fmt"
	"slices"
)

// ErrExec is returned for runtime faults during IR interpretation.
var ErrExec = errors.New("compile: execution fault")

// Machine executes compiled IR. It provides a flat little-endian byte
// memory for load/store, resolves calls to other functions in the same
// object, and supports a few libc builtins (memmove, memcpy, memset) so
// the corpus functions run. The interpreter exists to differentially test
// the decompiler and the optimizer: original IR and transformed IR must
// agree on every input.
//
// A machine from NewMachine starts with zero-filled memory. A machine from
// NewLazyMachine materialises memory a page at a time: the first load,
// store, memcpy/memmove or memset that reaches a page fills it through the
// machine's PageFill, and Reset forgets every page so the same machine can
// run the next input without reallocating. Work then scales with the
// memory a program touches, not with the machine size.
type Machine struct {
	obj *Object
	mem []byte
	// fill materialises pages on first access; nil means every page is
	// materialised (zero-filled at construction).
	fill    PageFill
	touched []uint64 // one bit per materialised page (lazy machines only)
	// funcs caches each called function with its block-ID index, so a
	// branch is an index lookup instead of a scan over the blocks.
	funcs map[string]*funcIndex
	stack []int64 // register frames and outgoing arguments of active calls
	// StepLimit bounds total executed instructions (default 1e6).
	StepLimit int
	steps     int
}

// PageSize is the granularity, in bytes, at which a lazy machine
// materialises memory.
const PageSize = 1 << pageShift

const pageShift = 8

// PageFill supplies the initial contents of one page of a lazy machine's
// memory: it must fill page, whose first byte is at address base. The
// contents must depend only on base (and whatever the filler closes over),
// so that two machines sharing a filler see identical untouched memory.
type PageFill func(base int64, page []byte)

type funcIndex struct {
	fn *Func
	// blocks maps a block ID to its block; nil when IDs are too sparse or
	// negative to index densely, in which case Func.Block0 resolves them.
	blocks []*Block
}

// NewMachine builds a machine over obj with memSize bytes of zero-filled
// memory.
func NewMachine(obj *Object, memSize int) *Machine {
	if memSize <= 0 {
		memSize = 1 << 16
	}
	return &Machine{obj: obj, mem: make([]byte, memSize), StepLimit: 1_000_000}
}

// NewLazyMachine builds a machine over obj whose memory is mem, with
// pages materialised through fill (not nil) on first access. The initial
// contents of mem are irrelevant — no byte is read before its page is
// filled — so callers may recycle buffers without clearing them.
func NewLazyMachine(obj *Object, mem []byte, fill PageFill) *Machine {
	m := &Machine{obj: obj, mem: mem, StepLimit: 1_000_000}
	m.touched = make([]uint64, (m.NumPages()+63)/64)
	m.Reset(fill)
	return m
}

// Reset re-arms a machine built by NewLazyMachine for the next input:
// every page becomes untouched again and is next materialised through
// fill, which must not be nil. The memory buffer is reused.
func (m *Machine) Reset(fill PageFill) {
	m.fill = fill
	clear(m.touched)
}

// Mem exposes the machine memory for test setup and inspection. On a lazy
// machine it first materialises every page, so the slice always holds
// the bytes a program would observe.
func (m *Machine) Mem() []byte {
	if m.fill != nil {
		for p := 0; p < m.NumPages(); p++ {
			m.Page(p)
		}
	}
	return m.mem
}

// NumPages is the number of PageSize pages in the machine memory; the
// last one is short when the memory size is not a multiple of PageSize.
func (m *Machine) NumPages() int { return (len(m.mem) + PageSize - 1) / PageSize }

// Touched reports whether page p has been materialised since the last
// Reset. Every page of a zero-filled machine counts as touched.
func (m *Machine) Touched(p int) bool {
	return m.fill == nil || m.touched[p>>6]&(1<<(p&63)) != 0
}

// Page materialises page p if needed and returns its bytes.
func (m *Machine) Page(p int) []byte {
	base := p * PageSize
	page := m.mem[base:min(base+PageSize, len(m.mem))]
	if !m.Touched(p) {
		m.touched[p>>6] |= 1 << (p & 63)
		m.fill(int64(base), page)
	}
	return page
}

// touch materialises every page overlapping the n > 0 bytes at addr of
// a lazy machine; the caller has bounds-checked the range.
func (m *Machine) touch(addr, n int64) {
	last := int(uint64(addr+n-1) >> pageShift)
	for p := int(uint64(addr) >> pageShift); p <= last; p++ {
		if m.touched[p>>6]&(1<<(p&63)) == 0 {
			m.Page(p)
		}
	}
}

// Call runs the named function with the given arguments and returns its
// result (0 for void functions).
func (m *Machine) Call(name string, args ...int64) (int64, error) {
	m.steps = 0
	m.stack = m.stack[:0] // a faulted call leaves its frames behind
	return m.call(name, args, 0)
}

// lookup resolves a function of the object by name, indexing its blocks
// by ID on first use.
func (m *Machine) lookup(name string) (*funcIndex, bool) {
	if fi, ok := m.funcs[name]; ok {
		return fi, true
	}
	fn, ok := m.obj.Func0(name)
	if !ok {
		return nil, false
	}
	fi := &funcIndex{fn: fn}
	maxID := -1
	for _, b := range fn.Blocks {
		if b.ID < 0 {
			maxID = -1
			break
		}
		maxID = max(maxID, b.ID)
	}
	if maxID >= 0 && maxID < 4*len(fn.Blocks)+64 {
		fi.blocks = make([]*Block, maxID+1)
		for _, b := range fn.Blocks {
			if fi.blocks[b.ID] == nil { // Block0 resolves duplicates to the first
				fi.blocks[b.ID] = b
			}
		}
	}
	if m.funcs == nil {
		m.funcs = map[string]*funcIndex{}
	}
	m.funcs[name] = fi
	return fi, true
}

// block resolves a branch target of fi's function, nil when it is missing.
func (fi *funcIndex) block(id int) *Block {
	if fi.blocks == nil {
		return fi.fn.Block0(id)
	}
	if id < 0 || id >= len(fi.blocks) {
		return nil
	}
	return fi.blocks[id]
}

func (m *Machine) call(name string, args []int64, depth int) (int64, error) {
	if depth > 200 {
		return 0, fmt.Errorf("compile: call depth exceeded in %s: %w", name, ErrExec)
	}
	if v, ok, err := m.builtin(name, args); ok {
		return v, err
	}
	fi, ok := m.lookup(name)
	if !ok {
		return 0, fmt.Errorf("compile: undefined function %q: %w", name, ErrExec)
	}
	fn := fi.fn
	if len(args) != fn.NParams {
		return 0, fmt.Errorf("compile: %s called with %d args, wants %d: %w", name, len(args), fn.NParams, ErrExec)
	}
	// Frames live on the machine's register stack, so calls allocate
	// nothing once it has grown. A nested call may move the stack; regs
	// keeps addressing this frame's cells in the old array, which no other
	// frame uses.
	base := len(m.stack)
	m.stack = slices.Grow(m.stack, fn.NTemps)[:base+fn.NTemps]
	regs := m.stack[base:]
	clear(regs)
	copy(regs, args)

	val := func(o *Operand) (int64, error) {
		switch o.Kind {
		case OperandTemp:
			return regs[o.Temp], nil
		case OperandConst:
			return o.Const, nil
		case OperandNone:
			return 0, nil
		default:
			return 0, fmt.Errorf("compile: cannot evaluate symbol operand %s: %w", o, ErrExec)
		}
	}

	cur := fn.Blocks[0]
	for {
		for i := range cur.Instrs {
			in := &cur.Instrs[i]
			m.steps++
			if m.steps > m.StepLimit {
				return 0, fmt.Errorf("in %s: %w", name, ErrStepLimit)
			}
			switch in.Op {
			case OpMov:
				v, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
				OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE:
				a, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				b, err := val(&in.B)
				if err != nil {
					return 0, err
				}
				v, err := applyBinop(in.Op, a, b)
				if err != nil {
					return 0, fmt.Errorf("%w (in %s)", err, name)
				}
				regs[in.Dst] = v
			case OpNeg:
				a, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = -a
			case OpNot:
				a, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = ^a
			case OpLNot:
				a, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				if a == 0 {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case OpLoad:
				addr, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				v, err := m.load(addr, in.Width)
				if err != nil {
					return 0, fmt.Errorf("%w (in %s)", err, name)
				}
				regs[in.Dst] = v
			case OpStore:
				addr, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				v, err := val(&in.B)
				if err != nil {
					return 0, err
				}
				if err := m.store(addr, in.Width, v); err != nil {
					return 0, fmt.Errorf("%w (in %s)", err, name)
				}
			case OpCall:
				argBase := len(m.stack)
				for i := range in.Args {
					v, err := val(&in.Args[i])
					if err != nil {
						return 0, err
					}
					m.stack = append(m.stack, v)
				}
				var callee string
				switch in.Callee.Kind {
				case OperandSym:
					callee = in.Callee.Sym
				case OperandTemp:
					return 0, fmt.Errorf("compile: indirect calls need a function table, %s: %w", name, ErrExec)
				default:
					return 0, fmt.Errorf("compile: bad callee %s: %w", in.Callee, ErrExec)
				}
				v, err := m.call(callee, m.stack[argBase:], depth+1)
				if err != nil {
					return 0, err
				}
				m.stack = m.stack[:argBase]
				if in.Dst >= 0 {
					regs[in.Dst] = v
				}
			case OpRet:
				v, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				m.stack = m.stack[:base]
				if in.A.Kind == OperandNone {
					return 0, nil
				}
				return truncate(v, fn.RetWidth, fn.RetSigned), nil
			case OpBr:
				next := fi.block(in.Target)
				if next == nil {
					return 0, fmt.Errorf("compile: missing block b%d in %s: %w", in.Target, name, ErrExec)
				}
				cur = next
				goto nextBlock
			case OpCondBr:
				c, err := val(&in.A)
				if err != nil {
					return 0, err
				}
				target := in.Target
				if c == 0 {
					target = in.Else
				}
				next := fi.block(target)
				if next == nil {
					return 0, fmt.Errorf("compile: missing block b%d in %s: %w", target, name, ErrExec)
				}
				cur = next
				goto nextBlock
			default:
				return 0, fmt.Errorf("compile: unknown opcode %v in %s: %w", in.Op, name, ErrExec)
			}
		}
		return 0, fmt.Errorf("compile: block b%d in %s fell through: %w", cur.ID, name, ErrExec)
	nextBlock:
	}
}

func applyBinop(op Opcode, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("compile: division by zero: %w", ErrExec)
		}
		return a / b, nil
	case OpRem:
		if b == 0 {
			return 0, fmt.Errorf("compile: modulo by zero: %w", ErrExec)
		}
		return a % b, nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpShl:
		return a << (uint(b) & 63), nil
	case OpShr:
		return int64(uint64(a) >> (uint(b) & 63)), nil
	case OpCmpEQ:
		return b2i(a == b), nil
	case OpCmpNE:
		return b2i(a != b), nil
	case OpCmpLT:
		return b2i(a < b), nil
	case OpCmpLE:
		return b2i(a <= b), nil
	case OpCmpGT:
		return b2i(a > b), nil
	case OpCmpGE:
		return b2i(a >= b), nil
	default:
		return 0, fmt.Errorf("compile: not a binop: %v: %w", op, ErrExec)
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// truncate narrows a value to the declared return width.
func truncate(v int64, width int, signed bool) int64 {
	switch width {
	case 1:
		if signed {
			return int64(int8(v))
		}
		return int64(uint8(v))
	case 2:
		if signed {
			return int64(int16(v))
		}
		return int64(uint16(v))
	case 4:
		if signed {
			return int64(int32(v))
		}
		return int64(uint32(v))
	default:
		return v
	}
}

// inBounds reports whether the n >= 0 bytes at addr lie inside memory,
// without overflowing on addresses near the int64 limits.
func (m *Machine) inBounds(addr, n int64) bool {
	return addr >= 0 && n >= 0 && n <= int64(len(m.mem)) && addr <= int64(len(m.mem))-n
}

func (m *Machine) load(addr int64, width int) (int64, error) {
	if !m.inBounds(addr, int64(width)) {
		return 0, fmt.Errorf("compile: load of %d bytes at %#x out of bounds: %w", width, addr, ErrExec)
	}
	if m.fill != nil {
		m.touch(addr, int64(width))
	}
	var v uint64
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.mem[addr+int64(i)])
	}
	return truncate(int64(v), width, false), nil
}

func (m *Machine) store(addr int64, width int, v int64) error {
	if !m.inBounds(addr, int64(width)) {
		return fmt.Errorf("compile: store of %d bytes at %#x out of bounds: %w", width, addr, ErrExec)
	}
	if m.fill != nil {
		m.touch(addr, int64(width))
	}
	for i := 0; i < width; i++ {
		m.mem[addr+int64(i)] = byte(v)
		v >>= 8
	}
	return nil
}

// builtin implements the small libc surface the corpus uses.
func (m *Machine) builtin(name string, args []int64) (int64, bool, error) {
	switch name {
	case "memcpy", "memmove":
		if len(args) != 3 {
			return 0, true, fmt.Errorf("compile: %s wants 3 args: %w", name, ErrExec)
		}
		dst, src, n := args[0], args[1], args[2]
		if !m.inBounds(dst, n) || !m.inBounds(src, n) {
			return 0, true, fmt.Errorf("compile: %s out of bounds: %w", name, ErrExec)
		}
		if m.fill != nil && n > 0 {
			m.touch(src, n)
			m.touch(dst, n)
		}
		copy(m.mem[dst:dst+n], m.mem[src:src+n]) // copy has memmove semantics
		return dst, true, nil
	case "memset":
		if len(args) != 3 {
			return 0, true, fmt.Errorf("compile: memset wants 3 args: %w", ErrExec)
		}
		dst, c, n := args[0], args[1], args[2]
		if !m.inBounds(dst, n) {
			return 0, true, fmt.Errorf("compile: memset out of bounds: %w", ErrExec)
		}
		if m.fill != nil && n > 0 {
			m.touch(dst, n)
		}
		for i := int64(0); i < n; i++ {
			m.mem[dst+i] = byte(c)
		}
		return dst, true, nil
	default:
		return 0, false, nil
	}
}

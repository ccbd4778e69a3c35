// Package mesac is a small compiler from a Mesa-flavored expression
// language to the emulator's byte codes — the role the real Mesa compiler
// played above the Dorado (§3: "byte code compilers exist for Mesa ...";
// the machine is "optimized for the execution of languages that are
// compiled into streams of byte codes").
//
// The language is deliberately tiny but complete enough for real
// workloads — recursive functions, loops, globals:
//
//	func fib(n) {
//	    if n < 2 { return n; }
//	    return fib(n-1) + fib(n-2);
//	}
//	return fib(12);
//
// Grammar (statements end with ';', blocks are braced):
//
//	program  = funcdef* stmt*
//	funcdef  = "func" name "(" [name ("," name)*] ")" block
//	stmt     = "var" name "=" expr ";"
//	         | name "=" expr ";"
//	         | "global" number "=" expr ";"
//	         | "while" expr block
//	         | "if" expr block ["else" block]
//	         | "return" expr ";"
//	         | expr ";"
//	expr     = comparison over + - with * & | ^ << and unary -
//	primary  = number | name | "global" number | name "(" args ")" | "(" expr ")"
//
// Numbers are 16-bit (decimal or 0x hex). Comparisons yield 0 or 1. All
// arithmetic is the machine's: 16-bit wrapping.
package mesac

import (
	"fmt"

	"dorado/internal/core"
	"dorado/internal/emulator"
)

// Program is a compiled macroprogram: byte code plus the function headers
// the Mesa CALL opcode resolves through the global area.
type Program struct {
	Code  []byte
	Funcs []FuncInfo
}

// FuncInfo records one compiled function.
type FuncInfo struct {
	Name  string
	Slot  uint16 // global-area header slot
	Entry uint16 // byte PC
	Args  int

	compiled bool  // definition seen
	callArgs []int // argument counts at call sites, checked after compile
}

// Compile translates source text.
func Compile(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{toks: toks, funcs: map[string]*FuncInfo{}}
	if err := c.program(); err != nil {
		return nil, err
	}
	code, err := c.asm.Bytes()
	if err != nil {
		return nil, err
	}
	p := &Program{Code: code}
	for _, f := range c.order {
		fi := *c.funcs[f]
		pc, err := c.asm.LabelPC("f." + f)
		if err != nil {
			return nil, err
		}
		fi.Entry = pc
		p.Funcs = append(p.Funcs, fi)
	}
	return p, nil
}

// InstallOn loads the program and its function headers into a Mesa system
// machine (the emulator must already be installed or installed after —
// headers live in data memory, code in the code area).
func (p *Program) InstallOn(m *core.Machine) {
	emulator.LoadCode(m, p.Code)
	for _, f := range p.Funcs {
		emulator.DefineFunc(m, f.Slot, f.Entry, uint16(f.Args))
	}
}

// compiler holds parse and codegen state. Code generation goes straight
// into the byte-code assembler; control flow uses generated labels.
type compiler struct {
	toks  []token
	pos   int
	asm   *emulator.Asm
	funcs map[string]*FuncInfo
	order []string

	// current function scope
	locals map[string]uint8 // name → frame slot
	nextSl uint8
	labels int
	inFunc bool
}

const firstFuncSlot = 0x100 // global-area slots for function headers

func (c *compiler) program() error {
	c.asm = emulator.NewAsm(emulator.Mesa())

	// Pre-scan function names so forward calls resolve.
	for i := 0; i+1 < len(c.toks); i++ {
		if c.toks[i].kind == tkKeyword && c.toks[i].text == "func" &&
			c.toks[i+1].kind == tkName {
			name := c.toks[i+1].text
			if _, dup := c.funcs[name]; dup {
				return fmt.Errorf("mesac: function %q defined twice", name)
			}
			c.funcs[name] = &FuncInfo{
				Name: name,
				Slot: uint16(firstFuncSlot + 2*len(c.order)),
			}
			c.order = append(c.order, name)
		}
	}

	// Main body first (execution starts at byte 0); function bodies after.
	var fnStarts []int
	c.locals = map[string]uint8{}
	c.nextSl = 2 // frame slots 0,1 are the saved-L/PC links
	for !c.eof() {
		if c.peekKw("func") {
			fnStarts = append(fnStarts, c.pos)
			if err := c.skipFunc(); err != nil {
				return err
			}
			continue
		}
		if err := c.stmt(); err != nil {
			return err
		}
	}
	c.asm.Op("HALT")
	for _, at := range fnStarts {
		c.pos = at
		if err := c.funcdef(); err != nil {
			return err
		}
	}
	// Argument-count check (deferred so forward calls work).
	for _, name := range c.order {
		fi := c.funcs[name]
		for _, n := range fi.callArgs {
			if n != fi.Args {
				return fmt.Errorf("mesac: %s takes %d argument(s), called with %d", name, fi.Args, n)
			}
		}
	}
	return nil
}

// skipFunc advances past a function definition without compiling it.
func (c *compiler) skipFunc() error {
	c.pos += 2 // func name
	if err := c.expect("("); err != nil {
		return err
	}
	for !c.eof() && !c.peekPunct(")") {
		c.pos++
	}
	if err := c.expect(")"); err != nil {
		return err
	}
	return c.skipBlock()
}

func (c *compiler) skipBlock() error {
	if err := c.expect("{"); err != nil {
		return err
	}
	depth := 1
	for !c.eof() && depth > 0 {
		switch {
		case c.peekPunct("{"):
			depth++
		case c.peekPunct("}"):
			depth--
		}
		c.pos++
	}
	if depth != 0 {
		return fmt.Errorf("mesac: unbalanced braces")
	}
	return nil
}

func (c *compiler) funcdef() error {
	c.pos++ // "func"
	name := c.toks[c.pos].text
	c.pos++
	fi := c.funcs[name]
	if err := c.expect("("); err != nil {
		return err
	}
	var params []string
	for !c.peekPunct(")") {
		if len(params) > 0 {
			if err := c.expect(","); err != nil {
				return err
			}
		}
		if c.toks[c.pos].kind != tkName {
			return fmt.Errorf("mesac: parameter name expected, got %q", c.toks[c.pos].text)
		}
		params = append(params, c.toks[c.pos].text)
		c.pos++
	}
	c.pos++ // ")"
	fi.Args = len(params)

	c.asm.Label("f." + name)
	c.locals = map[string]uint8{}
	// The CALL microcode moves arguments in pop order: the LAST argument
	// lands in frame slot 2. Map parameters accordingly.
	for i, p := range params {
		c.locals[p] = uint8(2 + len(params) - 1 - i)
	}
	c.nextSl = uint8(2 + len(params))
	fi.compiled = true
	c.inFunc = true
	err := c.block()
	c.inFunc = false
	if err != nil {
		return err
	}
	// Implicit "return 0" for functions that fall off the end.
	c.asm.OpB("LIB", 0)
	c.asm.Op("RET")
	return nil
}

func (c *compiler) block() error {
	if err := c.expect("{"); err != nil {
		return err
	}
	for !c.peekPunct("}") {
		if c.eof() {
			return fmt.Errorf("mesac: unterminated block")
		}
		if err := c.stmt(); err != nil {
			return err
		}
	}
	c.pos++ // "}"
	return nil
}

func (c *compiler) newLabel(stem string) string {
	c.labels++
	return fmt.Sprintf(".%s%d", stem, c.labels)
}

func (c *compiler) stmt() error {
	switch {
	case c.peekKw("var"):
		c.pos++
		name := c.toks[c.pos].text
		if c.toks[c.pos].kind != tkName {
			return fmt.Errorf("mesac: variable name expected")
		}
		if _, dup := c.locals[name]; dup {
			return fmt.Errorf("mesac: variable %q redeclared", name)
		}
		c.pos++
		if err := c.expect("="); err != nil {
			return err
		}
		if err := c.expr(); err != nil {
			return err
		}
		c.locals[name] = c.nextSl
		c.asm.OpB("SL", c.nextSl)
		c.nextSl++
		return c.expect(";")

	case c.peekKw("global"):
		// global N = expr;  (or a bare global expression statement)
		if c.toks[c.pos+2].text == "=" && c.toks[c.pos+2].kind == tkPunct {
			c.pos++
			slot, err := c.number()
			if err != nil {
				return err
			}
			c.pos++ // "="
			if err := c.expr(); err != nil {
				return err
			}
			c.asm.OpB("SG", uint8(slot))
			return c.expect(";")
		}
		// fall through to expression statement
		if err := c.expr(); err != nil {
			return err
		}
		c.asm.Op("DROP")
		return c.expect(";")

	case c.peekKw("while"):
		c.pos++
		top, end := c.newLabel("w"), c.newLabel("we")
		c.asm.Label(top)
		if err := c.expr(); err != nil {
			return err
		}
		c.asm.OpL("JZ", end)
		if err := c.block(); err != nil {
			return err
		}
		c.asm.OpL("JMP", top)
		c.asm.Label(end)
		return nil

	case c.peekKw("if"):
		c.pos++
		els, end := c.newLabel("ie"), c.newLabel("ix")
		if err := c.expr(); err != nil {
			return err
		}
		c.asm.OpL("JZ", els)
		if err := c.block(); err != nil {
			return err
		}
		if c.peekKw("else") {
			c.pos++
			c.asm.OpL("JMP", end)
			c.asm.Label(els)
			if err := c.block(); err != nil {
				return err
			}
			c.asm.Label(end)
		} else {
			c.asm.Label(els)
		}
		return nil

	case c.peekKw("return"):
		c.pos++
		if err := c.expr(); err != nil {
			return err
		}
		if c.inFunc {
			c.asm.Op("RET")
		} else {
			c.asm.Op("HALT") // main's return: leave the result on the stack
		}
		return c.expect(";")

	case c.toks[c.pos].kind == tkName && c.peekAt(1, "="):
		name := c.toks[c.pos].text
		slot, ok := c.locals[name]
		if !ok {
			return fmt.Errorf("mesac: assignment to undeclared variable %q", name)
		}
		c.pos += 2
		if err := c.expr(); err != nil {
			return err
		}
		c.asm.OpB("SL", slot)
		return c.expect(";")

	default:
		if err := c.expr(); err != nil {
			return err
		}
		c.asm.Op("DROP") // expression statement: discard the value
		return c.expect(";")
	}
}

// Package lispc is a small compiler from s-expressions to the Lisp
// emulator's byte codes — the Interlisp side of §3's "byte code compilers
// exist for Mesa, Interlisp and Smalltalk". Where mesac demonstrates the
// cheap path (hardware stack, compile-time checking), lispc's output pays
// the costs §7 attributes to Lisp: every value is a two-word tagged item
// on the memory stack, every primitive type-checks at run time, and every
// call shallow-binds its parameter symbols.
//
// The language:
//
//	program = (define (name params...) body...)* expr
//	expr    = number
//	        | nil
//	        | name                     ; a parameter or let binding
//	        | (+ a b) | (- a b)        ; fixnum, type-checked
//	        | (car e) | (cdr e) | (cons a b)
//	        | (if0 n then else)        ; fixnum-zero test
//	        | (ifnil e then else)      ; NIL test
//	        | (let ((name e)...) body...)
//	        | (name args...)           ; call
//
// A function body (and a let body) is an implicit sequence; every form
// yields a value and non-final values are popped. Recursion is the loop
// construct, as in the Interlisp of the period.
package lispc

import (
	"fmt"

	"dorado/internal/core"
	"dorado/internal/emulator"
)

// Program is a compiled Lisp macroprogram.
type Program struct {
	Code  []byte
	Funcs []FuncInfo
	// Symbols lists the parameter-symbol value cells the compiler
	// allocated in the heap (two words each).
	Symbols map[string]uint16
}

// FuncInfo records one compiled function.
type FuncInfo struct {
	Name   string
	Slot   uint16
	Entry  uint16
	Params []string
}

// Compile translates source text.
func Compile(src string) (*Program, error) {
	forms, err := ParseForms(src)
	if err != nil {
		return nil, err
	}
	c := &lcompiler{
		asm:     emulator.NewAsm(emulator.Lisp()),
		funcs:   map[string]*FuncInfo{},
		symbols: map[string]uint16{},
	}
	if err := c.program(forms); err != nil {
		return nil, err
	}
	code, err := c.asm.Bytes()
	if err != nil {
		return nil, err
	}
	p := &Program{Code: code, Symbols: c.symbols}
	for _, name := range c.order {
		fi := *c.funcs[name]
		pc, err := c.asm.LabelPC("fn." + name)
		if err != nil {
			return nil, err
		}
		fi.Entry = pc
		p.Funcs = append(p.Funcs, fi)
	}
	return p, nil
}

// InstallOn loads code, function headers, and symbol cells.
func (p *Program) InstallOn(m *core.Machine) {
	emulator.LoadCode(m, p.Code)
	for _, f := range p.Funcs {
		syms := make([]uint16, len(f.Params))
		for i, prm := range f.Params {
			syms[i] = p.Symbols[f.Name+"."+prm]
		}
		emulator.DefineLispFunc(m, f.Slot, f.Entry, syms)
	}
}

// symBase is the heap address where the compiler allocates parameter
// symbol cells (two words each).
const symBase = emulator.VAHeap + 0x0800

const firstSlot = 0x100

// lcompiler is the code generator.
type lcompiler struct {
	asm     *emulator.Asm
	funcs   map[string]*FuncInfo
	order   []string
	symbols map[string]uint16
	labels  int

	// scope: name → frame word offset of the binding's tag word.
	env    map[string]uint8
	nextSl uint8
	inFunc bool
}

func (c *lcompiler) newLabel(stem string) string {
	c.labels++
	return fmt.Sprintf(".%s%d", stem, c.labels)
}

func (c *lcompiler) program(forms []*Sexpr) error {
	// Pass 1: collect definitions.
	var body []*Sexpr
	for _, f := range forms {
		if f.isDefine() {
			name, params, err := f.defineHead()
			if err != nil {
				return err
			}
			if _, dup := c.funcs[name]; dup {
				return fmt.Errorf("lispc: %s defined twice", name)
			}
			c.funcs[name] = &FuncInfo{
				Name:   name,
				Slot:   uint16(firstSlot + 4*len(c.order)),
				Params: params,
			}
			for _, prm := range params {
				key := name + "." + prm
				c.symbols[key] = uint16(symBase + 2*len(c.symbols))
			}
			c.order = append(c.order, name)
			continue
		}
		body = append(body, f)
	}
	if len(body) == 0 {
		return fmt.Errorf("lispc: no top-level expression")
	}
	// Main body.
	c.env = map[string]uint8{}
	c.nextSl = 4
	for i, f := range body {
		if err := c.expr(f); err != nil {
			return err
		}
		if i != len(body)-1 {
			c.popDiscard()
		}
	}
	c.asm.Op("HALT")
	// Function bodies.
	for _, f := range forms {
		if !f.isDefine() {
			continue
		}
		if err := c.define(f); err != nil {
			return err
		}
	}
	return nil
}

// popDiscard drops the top item (two words) by storing it into a scratch
// local.
func (c *lcompiler) popDiscard() {
	c.asm.OpB("POPL", 30) // frame scratch slot
}

func (c *lcompiler) define(f *Sexpr) error {
	name, params, err := f.defineHead()
	if err != nil {
		return err
	}
	c.asm.Label("fn." + name)
	c.env = map[string]uint8{}
	// CALLF stores arguments in pop order from frame word 4: the LAST
	// argument's item lands at words 4,5.
	for i, prm := range params {
		c.env[prm] = uint8(4 + 2*(len(params)-1-i))
	}
	c.nextSl = uint8(4 + 2*len(params))
	c.inFunc = true
	body := f.list[2:]
	if len(body) == 0 {
		return fmt.Errorf("lispc: %s has an empty body", name)
	}
	for i, b := range body {
		if err := c.expr(b); err != nil {
			return err
		}
		if i != len(body)-1 {
			c.popDiscard()
		}
	}
	c.asm.Op("RETF")
	c.inFunc = false
	return nil
}

func (c *lcompiler) expr(e *Sexpr) error {
	switch {
	case e.isNumber:
		c.asm.OpW("PUSHK", e.num)
		return nil
	case e.atom == "nil":
		c.asm.Op("PUSHNIL")
		return nil
	case e.atom != "":
		off, ok := c.env[e.atom]
		if !ok {
			return fmt.Errorf("lispc: unbound variable %s", e.atom)
		}
		c.asm.OpB("PUSHL", off)
		return nil
	}
	if len(e.list) == 0 {
		return fmt.Errorf("lispc: empty form")
	}
	head := e.list[0].atom
	args := e.list[1:]
	binop := func(op string) error {
		if len(args) != 2 {
			return fmt.Errorf("lispc: %s takes 2 arguments", head)
		}
		if err := c.expr(args[0]); err != nil {
			return err
		}
		if err := c.expr(args[1]); err != nil {
			return err
		}
		c.asm.Op(op)
		return nil
	}
	switch head {
	case "+":
		return binop("ADDF")
	case "-":
		return binop("SUBF")
	case "cons":
		return binop("CONS")
	case "car", "cdr":
		if len(args) != 1 {
			return fmt.Errorf("lispc: %s takes 1 argument", head)
		}
		if err := c.expr(args[0]); err != nil {
			return err
		}
		c.asm.Op(map[string]string{"car": "CAR", "cdr": "CDR"}[head])
		return nil
	case "if0", "ifnil":
		if len(args) != 3 {
			return fmt.Errorf("lispc: %s takes (test then else)", head)
		}
		thenL, endL := c.newLabel("t"), c.newLabel("e")
		if err := c.expr(args[0]); err != nil {
			return err
		}
		jump := "JZF"
		if head == "ifnil" {
			jump = "JNIL"
		}
		c.asm.OpL(jump, thenL)
		if err := c.expr(args[2]); err != nil { // else arm
			return err
		}
		c.asm.OpL("JMP", endL)
		c.asm.Label(thenL)
		if err := c.expr(args[1]); err != nil {
			return err
		}
		c.asm.Label(endL)
		return nil
	case "let":
		if len(args) < 2 || len(e.list[1].list) == 0 && e.list[1].atom != "" {
			// bindings list may be empty; body required
		}
		if len(args) < 2 {
			return fmt.Errorf("lispc: let needs bindings and a body")
		}
		saved := map[string]uint8{}
		var added []string
		for _, b := range args[0].list {
			if len(b.list) != 2 || b.list[0].atom == "" {
				return fmt.Errorf("lispc: let binding must be (name expr)")
			}
			name := b.list[0].atom
			if err := c.expr(b.list[1]); err != nil {
				return err
			}
			slot := c.nextSl
			c.nextSl += 2
			c.asm.OpB("POPL", slot)
			if old, had := c.env[name]; had {
				saved[name] = old
			}
			c.env[name] = slot
			added = append(added, name)
		}
		body := args[1:]
		for i, b := range body {
			if err := c.expr(b); err != nil {
				return err
			}
			if i != len(body)-1 {
				c.popDiscard()
			}
		}
		for _, name := range added {
			if old, had := saved[name]; had {
				c.env[name] = old
			} else {
				delete(c.env, name)
			}
		}
		return nil
	}
	// Function call.
	fi, ok := c.funcs[head]
	if !ok {
		return fmt.Errorf("lispc: undefined function %s", head)
	}
	if len(args) != len(fi.Params) {
		return fmt.Errorf("lispc: %s takes %d argument(s), got %d", head, len(fi.Params), len(args))
	}
	for _, a := range args {
		if err := c.expr(a); err != nil {
			return err
		}
	}
	c.asm.OpW("CALLF", fi.Slot)
	return nil
}

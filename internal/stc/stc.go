// Package stc compiles a small object language to the Smalltalk
// emulator's byte codes — the third of §3's byte-code compilers. It is the
// demanding customer of the SEND machinery: every operation on an object
// is a dynamic dispatch through the receiver's class and method
// dictionary, at the cost experiment E2 measures (~57 microinstructions a
// send).
//
// The syntax is s-expression shaped (see internal/lispc for the reader):
//
//	(class Point (x y)
//	  (method getx () (field x))
//	  (method plus (n) (+ (field x) n))
//	  (method bump (d) (setfield x (+ (field x) d))))
//	(instance p Point 30 12)
//	(send p plus 5)                         ; the main expression
//
// Semantics:
//
//   - Classes declare fields (instance variables) and methods; methods take
//     zero or more parameters and return their last expression's value.
//   - (instance name Class v...) creates a static instance in the heap
//     with the given (SmallInteger) field values.
//   - (send recv selector args...) is a message send; selectors are
//     resolved per receiver class at run time, so two classes may answer
//     the same selector differently.
//   - self, (field f), (setfield f e) work inside methods; parameters are
//     referred to by name. (+ a b) is SmallInteger addition (type-checked
//     by the emulator's microcode). Integer literals are auto-tagged.
//   - (class Integer () (method ...)) gives tagged integers methods.
//   - (class Sub (ownFields) (extends Super) methods...) inherits the
//     superclass's instance layout and methods; the SEND microcode walks
//     the superclass chain on a dictionary miss, trapping ("message not
//     understood") only at the top.
package stc

import (
	"fmt"

	"dorado/internal/core"
	"dorado/internal/emulator"
	"dorado/internal/lispc"
)

// Program is a compiled Smalltalk world: byte code, method headers, and
// the object memory image (classes, dictionaries, instances).
type Program struct {
	Code    []byte
	Methods []Method
	// Image maps heap word addresses to initial contents.
	Image map[uint32]uint16
	// Instances maps instance names to their oops.
	Instances map[string]uint16
	// Selectors maps selector names to their bytes.
	Selectors map[string]uint8
}

// Method records one compiled method.
type Method struct {
	Class, Name string
	Slot        uint16
	Entry       uint16
	Params      int
}

// Heap layout the compiler manages.
const (
	classBase    = emulator.VAHeap + 0x0100
	dictBase     = emulator.VAHeap + 0x0400
	instanceBase = emulator.VAHeap + 0x0A00
	methodSlot0  = 0x180 // global-area header slots
)

// Compile translates source text.
func Compile(src string) (*Program, error) {
	forms, err := lispc.ParseForms(src)
	if err != nil {
		return nil, err
	}
	c := &scompiler{
		asm:       emulator.NewAsm(emulator.Smalltalk()),
		classes:   map[string]*sclass{},
		selectors: map[string]uint8{},
		instances: map[string]uint16{},
		image:     map[uint32]uint16{},
	}
	if err := c.program(forms); err != nil {
		return nil, err
	}
	code, err := c.asm.Bytes()
	if err != nil {
		return nil, err
	}
	p := &Program{
		Code:      code,
		Image:     c.image,
		Instances: c.instances,
		Selectors: c.selectors,
	}
	for _, m := range c.methods {
		pc, err := c.asm.LabelPC(m.label)
		if err != nil {
			return nil, err
		}
		p.Methods = append(p.Methods, Method{
			Class: m.class, Name: m.sel, Slot: m.slot, Entry: pc, Params: m.params,
		})
	}
	// Patch method entry PCs into the image's header slots.
	for _, m := range p.Methods {
		p.Image[uint32(emulator.VAGlobal)+uint32(m.Slot)] = m.Entry
		p.Image[uint32(emulator.VAGlobal)+uint32(m.Slot)+1] = 0
	}
	return p, nil
}

// InstallOn loads the code and object memory.
func (p *Program) InstallOn(m *core.Machine) {
	emulator.LoadCode(m, p.Code)
	for addr, v := range p.Image {
		m.Mem().Poke(addr, v)
	}
}

type sclass struct {
	name   string
	fields map[string]uint8 // name → instance-variable index (0-based)
	order  []string
	dict   []dictEntry
	oop    uint16 // class object address
	super  *sclass
}

type dictEntry struct {
	selector uint8
	slot     uint16
}

type smethod struct {
	class, sel string
	label      string
	slot       uint16
	params     int
}

type scompiler struct {
	asm       *emulator.Asm
	classes   map[string]*sclass
	selectors map[string]uint8
	instances map[string]uint16
	image     map[uint32]uint16
	methods   []smethod

	nextClass    uint16
	nextInstance uint16
	nextSelector uint8
	nextSlot     uint16
	labels       int

	// method scope
	cur    *sclass
	params map[string]uint8
}

func (c *scompiler) selector(name string) uint8 {
	if s, ok := c.selectors[name]; ok {
		return s
	}
	c.nextSelector++
	c.selectors[name] = c.nextSelector
	return c.nextSelector
}

func (c *scompiler) newLabel() string {
	c.labels++
	return fmt.Sprintf(".s%d", c.labels)
}

func (c *scompiler) program(forms []*lispc.Sexpr) error {
	// Pass 1: class shapes and method slots (so sends compile before the
	// method bodies do).
	var mains []*lispc.Sexpr
	for _, f := range forms {
		switch f.Head() {
		case "class":
			if err := c.declareClass(f); err != nil {
				return err
			}
		case "instance", "": // handled later / main expression
			mains = append(mains, f)
		default:
			mains = append(mains, f)
		}
	}
	// Pass 2: instances (need class shapes).
	var body []*lispc.Sexpr
	for _, f := range mains {
		if f.Head() == "instance" {
			if err := c.declareInstance(f); err != nil {
				return err
			}
			continue
		}
		body = append(body, f)
	}
	if len(body) == 0 {
		return fmt.Errorf("stc: no main expression")
	}
	// Main code.
	c.cur, c.params = nil, map[string]uint8{}
	for i, f := range body {
		if err := c.expr(f); err != nil {
			return err
		}
		if i != len(body)-1 {
			c.asm.OpB("STL", 30) // discard
		}
	}
	c.asm.Op("HALT")
	// Method bodies.
	for _, f := range forms {
		if f.Head() != "class" {
			continue
		}
		if err := c.compileMethods(f); err != nil {
			return err
		}
	}
	// Emit the object image: class objects and dictionaries.
	dictAddr := uint32(dictBase)
	for _, f := range forms {
		if f.Head() != "class" {
			continue
		}
		cl := c.classes[f.List()[1].Atom()]
		super := uint16(0)
		if cl.super != nil {
			super = cl.super.oop
		}
		c.image[uint32(cl.oop)] = super
		c.image[uint32(cl.oop)+1] = uint16(dictAddr)
		c.image[uint32(cl.oop)+2] = uint16(len(cl.dict))
		for _, d := range cl.dict {
			c.image[dictAddr] = uint16(d.selector)
			c.image[dictAddr+1] = d.slot
			dictAddr += 2
		}
		if cl.name == "integer" { // the reader lowercases atoms
			c.image[emulator.SIClassSlot] = cl.oop
		}
	}
	return nil
}

func (c *scompiler) declareClass(f *lispc.Sexpr) error {
	l := f.List()
	if len(l) < 3 || l[1].Atom() == "" {
		return fmt.Errorf("stc: class needs a name and a field list")
	}
	name := l[1].Atom()
	if _, dup := c.classes[name]; dup {
		return fmt.Errorf("stc: class %s declared twice", name)
	}
	cl := &sclass{
		name:   name,
		fields: map[string]uint8{},
		oop:    uint16(classBase) + 16*c.nextClass,
	}
	c.nextClass++
	members := l[3:]
	// Optional (extends Super) right after the field list: the subclass
	// inherits the superclass's instance layout and, at run time, its
	// methods (the SEND microcode walks the chain on a dictionary miss).
	if len(members) > 0 && members[0].Head() == "extends" {
		supName := members[0].List()[1].Atom()
		sup, ok := c.classes[supName]
		if !ok {
			return fmt.Errorf("stc: %s extends unknown class %s (declare the superclass first)", name, supName)
		}
		cl.super = sup
		for _, f := range sup.order {
			cl.fields[f] = uint8(len(cl.order))
			cl.order = append(cl.order, f)
		}
		members = members[1:]
	}
	for _, fld := range l[2].List() {
		if fld.Atom() == "" {
			return fmt.Errorf("stc: %s: field names must be atoms", name)
		}
		if _, dup := cl.fields[fld.Atom()]; dup {
			return fmt.Errorf("stc: %s: field %s shadows an inherited field", name, fld.Atom())
		}
		cl.fields[fld.Atom()] = uint8(len(cl.order))
		cl.order = append(cl.order, fld.Atom())
	}
	c.classes[name] = cl
	// Reserve method slots.
	for _, m := range members {
		if m.Head() != "method" || len(m.List()) < 4 {
			return fmt.Errorf("stc: %s: expected (method name (params) body...)", name)
		}
		sel := m.List()[1].Atom()
		slot := uint16(methodSlot0) + 2*c.nextSlot
		c.nextSlot++
		cl.dict = append(cl.dict, dictEntry{selector: c.selector(sel), slot: slot})
		c.methods = append(c.methods, smethod{
			class: name, sel: sel,
			label:  fmt.Sprintf("m.%s.%s", name, sel),
			slot:   slot,
			params: len(m.List()[2].List()),
		})
	}
	return nil
}

func (c *scompiler) declareInstance(f *lispc.Sexpr) error {
	l := f.List()
	if len(l) < 3 || l[1].Atom() == "" || l[2].Atom() == "" {
		return fmt.Errorf("stc: instance needs (instance name Class values...)")
	}
	name, clname := l[1].Atom(), l[2].Atom()
	cl, ok := c.classes[clname]
	if !ok {
		return fmt.Errorf("stc: instance %s of unknown class %s", name, clname)
	}
	vals := l[3:]
	if len(vals) != len(cl.order) {
		return fmt.Errorf("stc: %s has %d field(s), instance %s gives %d",
			clname, len(cl.order), name, len(vals))
	}
	oop := uint16(instanceBase) + 16*c.nextInstance
	c.nextInstance++
	c.image[uint32(oop)] = cl.oop
	for i, v := range vals {
		if !v.IsNumber() {
			return fmt.Errorf("stc: instance %s: field values must be integers", name)
		}
		c.image[uint32(oop)+1+uint32(i)] = v.Number()<<1 | 1 // tagged
	}
	c.instances[name] = oop
	return nil
}

func (c *scompiler) compileMethods(f *lispc.Sexpr) error {
	cl := c.classes[f.List()[1].Atom()]
	members := f.List()[3:]
	if len(members) > 0 && members[0].Head() == "extends" {
		members = members[1:]
	}
	for _, m := range members {
		sel := m.List()[1].Atom()
		c.asm.Label(fmt.Sprintf("m.%s.%s", cl.name, sel))
		c.cur = cl
		c.params = map[string]uint8{}
		params := m.List()[2].List()
		// SEND stores arguments in pop order from frame slot 3 (slot 2 is
		// the receiver): the LAST argument lands at slot 3.
		for i, prm := range params {
			c.params[prm.Atom()] = uint8(3 + len(params) - 1 - i)
		}
		body := m.List()[3:]
		if len(body) == 0 {
			return fmt.Errorf("stc: %s>>%s has an empty body", cl.name, sel)
		}
		for i, b := range body {
			if err := c.expr(b); err != nil {
				return fmt.Errorf("stc: %s>>%s: %v", cl.name, sel, err)
			}
			if i != len(body)-1 {
				c.asm.OpB("STL", 30)
			}
		}
		c.asm.Op("RETTOP")
	}
	c.cur = nil
	return nil
}

func (c *scompiler) expr(e *lispc.Sexpr) error {
	switch {
	case e.IsNumber():
		c.asm.OpW("PUSHK", e.Number())
		return nil
	case e.Atom() == "self":
		if c.cur == nil {
			return fmt.Errorf("stc: self outside a method")
		}
		c.asm.Op("PUSHSELF")
		return nil
	case e.Atom() != "":
		if slot, ok := c.params[e.Atom()]; ok {
			c.asm.OpB("PUSHL", slot)
			return nil
		}
		if oop, ok := c.instances[e.Atom()]; ok {
			c.pushPointer(oop)
			return nil
		}
		return fmt.Errorf("stc: unbound name %q", e.Atom())
	}
	l := e.List()
	if len(l) == 0 {
		return fmt.Errorf("stc: empty form")
	}
	switch l[0].Atom() {
	case "+":
		if len(l) != 3 {
			return fmt.Errorf("stc: + takes 2 arguments")
		}
		if err := c.expr(l[1]); err != nil {
			return err
		}
		if err := c.expr(l[2]); err != nil {
			return err
		}
		c.asm.Op("ADDI")
		return nil
	case "field":
		if c.cur == nil {
			return fmt.Errorf("stc: field outside a method")
		}
		idx, ok := c.cur.fields[l[1].Atom()]
		if !ok {
			return fmt.Errorf("stc: class %s has no field %s", c.cur.name, l[1].Atom())
		}
		c.asm.OpB("PUSHIV", idx+1)
		return nil
	case "setfield":
		if c.cur == nil {
			return fmt.Errorf("stc: setfield outside a method")
		}
		if len(l) != 3 {
			return fmt.Errorf("stc: setfield takes (setfield name expr)")
		}
		idx, ok := c.cur.fields[l[1].Atom()]
		if !ok {
			return fmt.Errorf("stc: class %s has no field %s", c.cur.name, l[1].Atom())
		}
		if err := c.expr(l[2]); err != nil {
			return err
		}
		c.asm.OpB("STIV", idx+1)
		c.asm.OpB("PUSHIV", idx+1) // setfield yields the stored value
		return nil
	case "send":
		if len(l) < 3 || l[2].Atom() == "" {
			return fmt.Errorf("stc: send takes (send recv selector args...)")
		}
		if err := c.expr(l[1]); err != nil {
			return err
		}
		args := l[3:]
		for _, a := range args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.asm.OpB2("SEND", c.selector(l[2].Atom()), uint8(len(args)))
		return nil
	}
	return fmt.Errorf("stc: unknown form %q", l[0].Atom())
}

// pushPointer materializes an even object pointer on the stack. PUSHK can
// only produce tagged (odd) SmallIntegers, so the compiler parks pointers
// in reserved boot-frame slots (initialized through the install image) and
// PUSHLs them — the role Smalltalk's literal frame played.
func (c *scompiler) pushPointer(oop uint16) {
	slot := c.pointerSlot(oop)
	c.asm.OpB("PUSHL", slot)
}

// pointerSlot assigns a boot-frame slot holding the pointer (poked by the
// install image; the boot frame is at emulator.VAFrames).
func (c *scompiler) pointerSlot(oop uint16) uint8 {
	// Slots 8..29 of the boot frame are reserved for compiler pointers.
	for slot := uint8(8); slot < 30; slot++ {
		addr := uint32(emulator.VAFrames) + uint32(slot)
		if v, ok := c.image[addr]; ok {
			if v == oop {
				return slot
			}
			continue
		}
		c.image[addr] = oop
		return slot
	}
	panic("stc: out of pointer slots")
}

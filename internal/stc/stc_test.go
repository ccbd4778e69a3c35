package stc

import (
	"strings"
	"testing"

	"dorado/internal/core"
	"dorado/internal/emulator"
)

// run compiles and executes src, returning the raw top-of-stack word.
func run(t *testing.T, src string) uint16 {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := emulator.Smalltalk()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st.InstallOn(m)
	prog.InstallOn(m) // after InstallOn: the image must survive booting
	if !m.Run(50_000_000) {
		t.Fatalf("did not halt (task %d pc %v)", m.CurTask(), m.CurPC())
	}
	depth := int(m.StackPtr() & 0x3F)
	if depth != 1 {
		t.Fatalf("stack depth %d at halt", depth)
	}
	return m.Stack(1)
}

func tagged(v uint16) uint16 { return v<<1 | 1 }

func TestLiteralAndAdd(t *testing.T) {
	if got := run(t, "(+ 20 22)"); got != tagged(42) {
		t.Fatalf("got %d", got)
	}
}

func TestFieldAccessThroughSend(t *testing.T) {
	src := `
(class Point (x y)
  (method getx () (field x))
  (method gety () (field y))
  (method sum () (+ (field x) (field y))))
(instance p Point 30 12)
(send p sum)
`
	if got := run(t, src); got != tagged(42) {
		t.Fatalf("sum = %d", got)
	}
}

func TestSendWithArguments(t *testing.T) {
	src := `
(class Point (x y)
  (method plus (n) (+ (field x) n)))
(instance p Point 40 0)
(send p plus 2)
`
	if got := run(t, src); got != tagged(42) {
		t.Fatalf("plus = %d", got)
	}
}

func TestSetFieldMutates(t *testing.T) {
	src := `
(class Counter (n)
  (method bump (d) (setfield n (+ (field n) d)))
  (method value () (field n)))
(instance c Counter 0)
(send c bump 20)
(send c bump 22)
(send c value)
`
	if got := run(t, src); got != tagged(42) {
		t.Fatalf("counter = %d", got)
	}
}

func TestPolymorphism(t *testing.T) {
	// Two classes answer the same selector differently.
	src := `
(class Cat ()
  (method legs () 4))
(class Bird ()
  (method legs () 2))
(instance felix Cat)
(instance tweety Bird)
(+ (send felix legs) (send tweety legs))
`
	if got := run(t, src); got != tagged(6) {
		t.Fatalf("legs = %d", got)
	}
}

func TestIntegerClassMethods(t *testing.T) {
	// Tagged integers dispatch through the SmallInteger class slot.
	src := `
(class Integer ()
  (method double () (+ self self))
  (method plus (n) (+ self n)))
(send (send 10 double) plus 22)
`
	if got := run(t, src); got != tagged(42) {
		t.Fatalf("integer methods = %d", got)
	}
}

func TestSelfSendsAndNesting(t *testing.T) {
	src := `
(class Point (x y)
  (method getx () (field x))
  (method gety () (field y))
  (method manhattan () (+ (send self getx) (send self gety))))
(instance p Point 17 25)
(send p manhattan)
`
	if got := run(t, src); got != tagged(42) {
		t.Fatalf("manhattan = %d", got)
	}
}

func TestObjectsAsArguments(t *testing.T) {
	src := `
(class Point (x y)
  (method getx () (field x))
  (method addx (other) (+ (field x) (send other getx))))
(instance a Point 30 0)
(instance b Point 12 0)
(send a addx b)
`
	if got := run(t, src); got != tagged(42) {
		t.Fatalf("addx = %d", got)
	}
}

func TestSequenceDiscards(t *testing.T) {
	src := `
(class Counter (n)
  (method bump () (setfield n (+ (field n) 1)))
  (method value () (field n)))
(instance c Counter 0)
(send c bump)
(send c bump)
(send c bump)
(send c value)
`
	if got := run(t, src); got != tagged(3) {
		t.Fatalf("bumps = %d", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"(send q getx)", "unbound"},
		{"(class P (x)) (instance p P 1 2) (send p getx)", "field"},
		{"(class P (x) (method m () (field y))) (instance p P 1) (send p m)", "no field"},
		{"(class P ()) (class P ()) 1", "twice"},
		{"(class P () (method m () self)) 1", ""}, // ok actually? self needs... method compiles fine; main is 1 — compiles.
		{"(field x)", "outside a method"},
		{"(setfield x 1)", "outside a method"},
		{"self", "outside a method"},
		{"(+ 1)", "takes 2"},
		{"(instance p Nope 1) 1", "unknown class"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if c.want == "" {
			if err != nil {
				t.Errorf("%q should compile: %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want mention of %q", c.src, err, c.want)
		}
	}
}

func TestInheritance(t *testing.T) {
	// Square extends Rect: inherits fields and methods, overrides one.
	src := `
(class Rect (w h)
  (method width () (field w))
  (method kind () 1)
  (method sum () (+ (field w) (field h))))
(class Square (tag) (extends Rect)
  (method kind () 2))
(instance s Square 20 20 1)
(+ (+ (send s sum) (send s kind)) (send s width))
`
	// sum (inherited) = 40, kind (overridden) = 2, width (inherited) = 20.
	if got := run(t, src); got != tagged(62) {
		t.Fatalf("inheritance = %d, want %d", got, tagged(62))
	}
}

func TestInheritanceTwoLevels(t *testing.T) {
	src := `
(class A ()
  (method base () 7))
(class B () (extends A))
(class C () (extends B)
  (method own () 35))
(instance c C)
(+ (send c base) (send c own))
`
	if got := run(t, src); got != tagged(42) {
		t.Fatalf("two-level chain = %d", got)
	}
}

func TestMessageNotUnderstoodAtChainTop(t *testing.T) {
	src := `
(class A ())
(class B () (extends A))
(instance b B)
(send b nothing)
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := emulator.Smalltalk()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st.InstallOn(m)
	prog.InstallOn(m)
	if !m.Run(1_000_000) {
		t.Fatal("did not halt")
	}
	if m.HaltPC() != st.Micro.MustEntry("s.trap") {
		t.Fatalf("halted at %v, want the trap", m.HaltPC())
	}
}

func TestExtendsUnknownClass(t *testing.T) {
	if _, err := Compile("(class B () (extends Nope)) 1"); err == nil {
		t.Fatal("extends of unknown class should fail")
	}
}

package lispc

import (
	"strings"
	"testing"

	"dorado/internal/core"
	"dorado/internal/emulator"
)

// run compiles and executes src, returning the (tag, value) left on the
// memory evaluation stack.
func run(t *testing.T, src string) [2]uint16 {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	lisp := emulator.Lisp()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog.InstallOn(m)
	lisp.InstallOn(m)
	if !m.Run(50_000_000) {
		t.Fatalf("did not halt (task %d pc %v)", m.CurTask(), m.CurPC())
	}
	st := emulator.LispStack(m)
	if len(st) != 1 {
		t.Fatalf("stack = %v, want one item", st)
	}
	return st[0]
}

func fixnum(v uint16) [2]uint16 { return [2]uint16{emulator.TagFixnum, v} }

func TestLiteralsAndArith(t *testing.T) {
	cases := []struct {
		src  string
		want [2]uint16
	}{
		{"42", fixnum(42)},
		{"(+ 2 40)", fixnum(42)},
		{"(- 50 8)", fixnum(42)},
		{"(+ (+ 1 2) (- 50 11))", fixnum(42)},
		{"nil", [2]uint16{emulator.TagNil, 0}},
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestListPrimitives(t *testing.T) {
	if got := run(t, "(car (cons 7 nil))"); got != fixnum(7) {
		t.Errorf("car = %v", got)
	}
	if got := run(t, "(car (cdr (cons 1 (cons 2 nil))))"); got != fixnum(2) {
		t.Errorf("cadr = %v", got)
	}
	if got := run(t, "(cdr (cons 1 nil))"); got != [2]uint16{emulator.TagNil, 0} {
		t.Errorf("cdr = %v", got)
	}
}

func TestConditionals(t *testing.T) {
	if got := run(t, "(if0 0 1 2)"); got != fixnum(1) {
		t.Errorf("if0 zero = %v", got)
	}
	if got := run(t, "(if0 5 1 2)"); got != fixnum(2) {
		t.Errorf("if0 nonzero = %v", got)
	}
	if got := run(t, "(ifnil nil 1 2)"); got != fixnum(1) {
		t.Errorf("ifnil nil = %v", got)
	}
	if got := run(t, "(ifnil (cons 1 nil) 1 2)"); got != fixnum(2) {
		t.Errorf("ifnil cons = %v", got)
	}
}

func TestLet(t *testing.T) {
	src := "(let ((a 30) (b 12)) (+ a b))"
	if got := run(t, src); got != fixnum(42) {
		t.Errorf("let = %v", got)
	}
	// Shadowing restores.
	src2 := "(let ((a 1)) (+ (let ((a 40)) a) (+ a 1)))"
	if got := run(t, src2); got != fixnum(42) {
		t.Errorf("shadowed let = %v", got)
	}
}

func TestFunctionCall(t *testing.T) {
	src := `
(define (double x) (+ x x))
(double (double 10))
`
	if got := run(t, src); got != fixnum(40) {
		t.Errorf("double = %v", got)
	}
}

func TestRecursiveCountdownSum(t *testing.T) {
	// sum(n) = n + sum(n-1), recursion as the loop. Depth 91 fits the
	// 96-frame pool; see TestFrameExhaustionTraps for the overflow case.
	src := `
(define (sum n)
  (if0 n 0 (+ n (sum (- n 1)))))
(sum 90)
`
	if got := run(t, src); got != fixnum(90*91/2) {
		t.Errorf("sum(90) = %v", got)
	}
}

func TestFrameExhaustionTraps(t *testing.T) {
	// Recursion deeper than the frame pool must halt at the trap (the
	// Mesa-style frame-availability check in CALLF), not run on corrupted
	// frames.
	src := `
(define (sum n)
  (if0 n 0 (+ n (sum (- n 1)))))
(sum 200)
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	lisp := emulator.Lisp()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog.InstallOn(m)
	lisp.InstallOn(m)
	if !m.Run(50_000_000) {
		t.Fatal("did not halt")
	}
	trap := lisp.Micro.MustEntry("l.trap")
	if m.HaltPC() != trap {
		t.Fatalf("halted at %v, want the trap %v", m.HaltPC(), trap)
	}
}

func TestRecursiveFib(t *testing.T) {
	src := `
(define (fib n)
  (if0 n 0
    (if0 (- n 1) 1
      (+ (fib (- n 1)) (fib (- n 2))))))
(fib 12)
`
	if got := run(t, src); got != fixnum(144) {
		t.Errorf("fib(12) = %v", got)
	}
}

func TestListLengthAndAppend(t *testing.T) {
	src := `
(define (range n)
  (if0 n nil (cons n (range (- n 1)))))
(define (length l)
  (ifnil l 0 (+ 1 (length (cdr l)))))
(length (range 10))
`
	if got := run(t, src); got != fixnum(10) {
		t.Errorf("length = %v", got)
	}
}

func TestSequenceBodies(t *testing.T) {
	// Non-final body forms are evaluated and discarded.
	src := `
(define (f x)
  (+ x 1)
  (+ x 2))
(f 40)
`
	if got := run(t, src); got != fixnum(42) {
		t.Errorf("sequence = %v", got)
	}
}

func TestShallowBindingAcrossRecursion(t *testing.T) {
	// Each recursive activation rebinds n; unwinding must restore outer
	// bindings (this is the CALLF/RETF binding stack at depth).
	src := `
(define (probe n)
  (if0 n n (+ (probe (- n 1)) n)))
(probe 30)
`
	if got := run(t, src); got != fixnum(465) {
		t.Errorf("probe = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"x", "unbound"},
		{"(bogus 1)", "undefined function"},
		{"(define (f a) a) (f 1 2)", "argument"},
		{"(+ 1)", "takes 2"},
		{"(car)", "takes 1"},
		{"(if0 1 2)", "takes"},
		{"(define (f) 1) (define (f) 2) (f)", "twice"},
		{"(", "unterminated"},
		{")", "unexpected"},
		{"(define (f))", ""}, // empty body caught at compile
		{"99999", "bad number"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("%q compiled without error", c.src)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want mention of %q", c.src, err, c.want)
		}
	}
}

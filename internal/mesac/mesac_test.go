package mesac

import (
	"strings"
	"testing"

	"dorado/internal/core"
	"dorado/internal/emulator"
)

// run compiles src, runs it on a Mesa system, and returns the value left
// on the evaluation stack by main's return.
func run(t *testing.T, src string) uint16 {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	mesa := emulator.Mesa()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog.InstallOn(m)
	mesa.InstallOn(m)
	if !m.Run(10_000_000) {
		t.Fatalf("program did not halt (task %d pc %v)", m.CurTask(), m.CurPC())
	}
	depth := int(m.StackPtr() & 0x3F)
	if depth != 1 {
		t.Fatalf("stack depth %d at halt, want 1", depth)
	}
	return m.Stack(1)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want uint16
	}{
		{"return 2 + 40;", 42},
		{"return 50 - 8;", 42},
		{"return 6 * 7;", 42},
		{"return (2 + 4) * 7;", 42},
		{"return 0xF0 & 0x3C;", 0x30},
		{"return 0x0F | 0xF0;", 0xFF},
		{"return 0xFF ^ 0x0F;", 0xF0},
		{"return 21 << 1;", 42},
		{"return -1;", 0xFFFF},
		{"return 10 - -32;", 42},
		{"return 1000;", 1000},
		{"return 2 + 3 * 4;", 14}, // precedence
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want uint16
	}{
		{"return 3 == 3;", 1},
		{"return 3 == 4;", 0},
		{"return 3 != 4;", 1},
		{"return 3 < 4;", 1},
		{"return 4 < 3;", 0},
		{"return 3 < 3;", 0},
		{"return 4 > 3;", 1},
		{"return 3 > 4;", 0},
		{"return 3 > 3;", 0},
		{"return 3 <= 3;", 1},
		{"return 3 <= 2;", 0},
		{"return 2 <= 3;", 1},
		{"return 3 >= 3;", 1},
		{"return 3 >= 4;", 0},
		{"return -1 < 1;", 1}, // signed
		{"return 1 > -1;", 1},
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestVariablesAndWhile(t *testing.T) {
	src := `
var sum = 0;
var i = 1;
while i <= 100 {
    sum = sum + i;
    i = i + 1;
}
return sum;
`
	if got := run(t, src); got != 5050 {
		t.Fatalf("sum = %d", got)
	}
}

func TestIfElse(t *testing.T) {
	src := `
var x = 10;
if x > 5 {
    x = x * 2;
} else {
    x = 0;
}
if x == 3 {
    x = 99;
}
return x;
`
	if got := run(t, src); got != 20 {
		t.Fatalf("x = %d", got)
	}
}

func TestFunctions(t *testing.T) {
	src := `
func add3(a, b, c) {
    return a + b + c;
}
func twice(x) {
    return x + x;
}
return add3(1, twice(4), 100) + twice(twice(2));
`
	if got := run(t, src); got != 1+8+100+8 {
		t.Fatalf("got %d", got)
	}
}

func TestRecursiveFib(t *testing.T) {
	src := `
func fib(n) {
    if n < 2 { return n; }
    return fib(n-1) + fib(n-2);
}
return fib(12);
`
	if got := run(t, src); got != 144 {
		t.Fatalf("fib(12) = %d", got)
	}
}

func TestGCD(t *testing.T) {
	plain := `
func mod(a, b) {
    while a >= b { a = a - b; }
    return a;
}
func gcd(a, b) {
    while b != 0 {
        var t = b;
        b = mod(a, b);
        a = t;
    }
    return a;
}
return gcd(1071, 462);
`
	if got := run(t, plain); got != 21 {
		t.Fatalf("gcd = %d", got)
	}
}

func TestGlobals(t *testing.T) {
	src := `
func bump() {
    global 5 = global 5 + 1;
    return global 5;
}
global 5 = 40;
bump();
return bump();
`
	if got := run(t, src); got != 42 {
		t.Fatalf("global = %d", got)
	}
}

func TestForwardCall(t *testing.T) {
	src := `
return f(20);
func f(x) { return g(x) + 1; }
func g(x) { return x + x; }
`
	if got := run(t, src); got != 41 {
		t.Fatalf("forward call = %d", got)
	}
}

func TestNestedWhileLoops(t *testing.T) {
	// Note: "var" has function-level scope (a declaration inside a loop
	// body would redeclare on the next iteration), so declarations hoist.
	hoisted := `
var total = 0;
var i = 0;
var j = 0;
while i < 10 {
    j = 0;
    while j < 10 {
        total = total + 1;
        j = j + 1;
    }
    i = i + 1;
}
return total;
`
	if got := run(t, hoisted); got != 100 {
		t.Fatalf("nested loops = %d", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, wantErr string
	}{
		{"return x;", "undeclared"},
		{"x = 1;", "undeclared"},
		{"var a = 1; var a = 2; return a;", "redeclared"},
		{"return f(1);", "undefined function"},
		{"func f(a) { return a; } return f(1, 2);", "argument"},
		{"func f() { return 1; } func f() { return 2; } return f();", "twice"},
		{"return 1 +;", "unexpected"},
		{"return (1;", "expected"},
		{"while 1 { return 1;", "unterminated"},
		{"return 5 << 99;", "out of range"},
		{"return @;", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: error = %v, want mention of %q", c.src, err, c.wantErr)
		}
	}
}

func TestExpressionStatementDrops(t *testing.T) {
	// Expression statements must not leak stack values.
	src := `
func noisy() { return 7; }
noisy();
noisy();
return 1;
`
	if got := run(t, src); got != 1 {
		t.Fatalf("got %d", got)
	}
}

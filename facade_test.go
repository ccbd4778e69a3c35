package dorado

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dorado/internal/bitblt"
)

func TestLispSystemFacade(t *testing.T) {
	sys, err := New(WithLanguage(Lisp))
	if err != nil {
		t.Fatal(err)
	}
	asm := sys.Asm()
	asm.OpW("PUSHK", 40).OpW("PUSHK", 2).Op("ADDF").Op("HALT")
	if err := sys.Boot(asm); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(100_000) {
		t.Fatal("did not halt")
	}
	st := sys.LispStack()
	if len(st) != 1 || st[0][1] != 42 {
		t.Fatalf("lisp stack = %v", st)
	}
}

func TestSmalltalkSystemFacade(t *testing.T) {
	sys, err := New(WithLanguage(Smalltalk))
	if err != nil {
		t.Fatal(err)
	}
	asm := sys.Asm()
	asm.OpW("PUSHK", 21)
	asm.OpB2("SEND", 3, 0)
	asm.Op("HALT")
	asm.Label("double")
	asm.Op("PUSHSELF").Op("PUSHSELF").Op("ADDI")
	asm.Op("RETTOP")
	if err := sys.Boot(asm); err != nil {
		t.Fatal(err)
	}
	// A one-method SmallInteger world.
	mem := sys.Machine.Mem()
	const class = 0x5000
	mem.Poke(0x0018, class) // SIClassSlot
	mem.Poke(class, 0)
	mem.Poke(class+1, class+0x10)
	mem.Poke(class+2, 1)
	mem.Poke(class+0x10, 3)
	mem.Poke(class+0x11, 310)
	pc, err := asm.LabelPC("double")
	if err != nil {
		t.Fatal(err)
	}
	sys.DefineFunc(310, pc, 0)
	if !sys.Run(1_000_000) {
		t.Fatal("did not halt")
	}
	st := sys.Stack()
	if len(st) != 1 || st[0] != 42<<1|1 {
		t.Fatalf("smalltalk stack = %v", st)
	}
}

func TestFacadeDevices(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Machine
	disk := NewDisk(11)
	if disk.Task() != 11 || disk.CyclesPerWord != 27 {
		t.Errorf("disk = %+v", disk)
	}
	eth := NewEthernet(9)
	if eth.CyclesPerWord != 89 {
		t.Errorf("ethernet cadence = %d", eth.CyclesPerWord)
	}
	disp := NewDisplay(13, m, 8)
	if disp.Task() != 13 || disp.CyclesPerBlock != 8 {
		t.Errorf("display = %+v", disp)
	}
	if err := m.Attach(disk); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(disp); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBitBlt(t *testing.T) {
	ps, err := NewBitBlt()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Machine
	m.Mem().Poke(0x1000, 0xBEEF)
	cycles, err := ps.Run(m, BitBltParams{
		Op: bitblt.Copy, Src: 0x1000, Dst: 0x2000,
		WidthWords: 1, Height: 1, SrcPitch: 1, DstPitch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || m.Mem().Peek(0x2000) != 0xBEEF {
		t.Fatalf("copy failed: %d cycles, dst=%#x", cycles, m.Mem().Peek(0x2000))
	}
}

func TestLanguageStrings(t *testing.T) {
	names := map[Language]string{Mesa: "Mesa", BCPL: "BCPL", Lisp: "Lisp", Smalltalk: "Smalltalk"}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("%d = %q", l, l.String())
		}
	}
	if Language(42).String() == "" {
		t.Error("unknown language renders empty")
	}
}

func TestNewSystemWithOptions(t *testing.T) {
	// The ablations are reachable through the facade.
	sys, err := New(WithLanguage(Mesa), WithConfig(Config{Options: Options{DelayedBranch: true}}))
	if err != nil {
		t.Fatal(err)
	}
	asm := sys.Asm()
	asm.OpB("LIB", 3).OpB("SL", 4)
	asm.Label("loop")
	asm.OpB("LL", 4).OpW("LIW", 1).Op("SUB").OpB("SL", 4)
	asm.OpB("LL", 4).OpL("JNZ", "loop")
	asm.Op("HALT")
	if err := sys.Boot(asm); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(100_000) {
		t.Fatal("did not halt")
	}
	if sys.Machine.Stats().BranchStalls == 0 {
		t.Error("delayed-branch option had no effect")
	}
}

func TestBootSourceLisp(t *testing.T) {
	sys, err := New(WithLanguage(Lisp))
	if err != nil {
		t.Fatal(err)
	}
	src := `
(define (len l) (ifnil l 0 (+ 1 (len (cdr l)))))
(len (cons 1 (cons 2 (cons 3 nil))))
`
	if err := sys.BootSource(src); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(1_000_000) {
		t.Fatal("did not halt")
	}
	st := sys.LispStack()
	if len(st) != 1 || st[0][1] != 3 {
		t.Fatalf("lisp stack = %v", st)
	}
}

func TestBootSourceSmalltalk(t *testing.T) {
	sys, err := New(WithLanguage(Smalltalk))
	if err != nil {
		t.Fatal(err)
	}
	src := `
(class Counter (n)
  (method bump (d) (setfield n (+ (field n) d)))
  (method value () (field n)))
(instance c Counter 40)
(send c bump 2)
(send c value)
`
	if err := sys.BootSource(src); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(1_000_000) {
		t.Fatal("did not halt")
	}
	st := sys.Stack()
	if len(st) != 1 || st[0] != 42<<1|1 {
		t.Fatalf("smalltalk source result = %v", st)
	}
}

func TestBootSourceRejectsBCPL(t *testing.T) {
	sys, err := New(WithLanguage(BCPL))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BootSource("return 1;"); err == nil {
		t.Fatal("BCPL BootSource should be rejected")
	}
}

func TestFacadeSystemImage(t *testing.T) {
	img, err := BuildSystemImage()
	if err != nil {
		t.Fatal(err)
	}
	if img.Micro.Stats.WordsUsed < 400 {
		t.Errorf("image suspiciously small: %v", img.Micro.Stats)
	}
}

// The Example functions below are the compile-checked companions to
// docs/API.md: each section of the guided tour points at one of these, so
// the documented snippets can never drift from the real API.

// ExampleNew is the quickstart: build a Mesa system, assemble a byte-code
// program, boot it, and read the result off the hardware stack.
func ExampleNew() {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		panic(err)
	}
	asm := sys.Asm()
	asm.OpB("LIB", 2).OpB("LIB", 40).Op("ADD").Op("HALT")
	if err := sys.Boot(asm); err != nil {
		panic(err)
	}
	sys.Run(10_000)
	fmt.Println(sys.Stack())
	// Output: [42]
}

// ExampleSystem_BootSource compiles the small Mesa-flavored source
// language and boots the result in one call.
func ExampleSystem_BootSource() {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		panic(err)
	}
	if err := sys.BootSource("return 6*7;"); err != nil {
		panic(err)
	}
	halted := sys.Run(1_000_000)
	fmt.Println(halted, sys.Stack())
	// Output: true [42]
}

// ExampleNew_metrics attaches the cycle-level observability recorder and
// exports its counters in the Prometheus text format.
func ExampleNew_metrics() {
	sys, err := New(WithLanguage(Mesa), WithMetrics(NewMetrics()))
	if err != nil {
		panic(err)
	}
	if err := sys.BootSource("return 6*7;"); err != nil {
		panic(err)
	}
	sys.Run(1_000_000)
	var buf bytes.Buffer
	if err := sys.WritePrometheus(&buf); err != nil {
		panic(err)
	}
	out := buf.String()
	fmt.Println(strings.Contains(out, "# TYPE dorado_cycles_total counter"))
	fmt.Println(strings.Contains(out, "# TYPE dorado_task_switches_total counter"))
	// Output:
	// true
	// true
}

// Example_snapshotRestore captures a machine mid-run and rewinds it: the
// snapshot is a complete, versioned state document, so restoring lands the
// machine exactly where it was.
func Example_snapshotRestore() {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		panic(err)
	}
	if err := sys.BootSource("return 6*7;"); err != nil {
		panic(err)
	}
	sys.Run(200)
	before := sys.Machine.Cycle()
	snap := sys.Machine.Snapshot()

	sys.Run(1_000) // keep going past the capture point...
	if err := sys.Machine.Restore(snap); err != nil {
		panic(err)
	}
	fmt.Println(sys.Machine.Cycle() == before)
	// ...and the restored machine re-runs the same future.
	sys.Run(1_000_000)
	fmt.Println(sys.Stack())
	// Output:
	// true
	// [42]
}

// Example_errorHandling shows the facade's sentinel errors; match them
// with errors.Is (install failures additionally carry an *InstallError
// for errors.As).
func Example_errorHandling() {
	_, err := New(WithLanguage(Language(99)))
	fmt.Println(errors.Is(err, ErrUnknownLanguage))

	sys, err := New(WithLanguage(BCPL))
	if err != nil {
		panic(err)
	}
	// BCPL has no source compiler; programs assemble via sys.Asm().
	err = sys.BootSource("x := 1")
	fmt.Println(errors.Is(err, ErrNoCompiler))
	// Output:
	// true
	// true
}

package dorado

import (
	"fmt"
	"sync"
	"testing"

	"dorado/internal/core"
	"dorado/internal/ifu"
	"dorado/internal/microcode"
)

// TestSystemsShareEmulator pins that a language's emulator is assembled
// once per process: every System of one language holds the same Program,
// so building a Mesa system and booting a compiled program allocate only
// the machine's and the program's own state. One assembly of the Mesa
// microcode makes about 1,200 allocations, far above the bound.
func TestSystemsShareEmulator(t *testing.T) {
	for _, l := range []Language{Mesa, BCPL, Lisp, Smalltalk} {
		a, err := New(WithLanguage(l))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(WithLanguage(l))
		if err != nil {
			t.Fatal(err)
		}
		if a.Emulator == nil || a.Emulator != b.Emulator {
			t.Errorf("%v: two systems hold emulators %p and %p, want one shared", l, a.Emulator, b.Emulator)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		sys, err := New(WithLanguage(Mesa))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.BootSource("return 6*7;"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("New + BootSource allocates %.0f times, want at most 100", allocs)
	}
}

// TestConcurrentSystems builds, boots and runs systems of every language
// from several goroutines at once, so that under the race detector the
// shared emulators' first use and every read of them overlap. Each system
// must compute its own program's answer.
func TestConcurrentSystems(t *testing.T) {
	cases := []struct {
		lang  Language
		boot  func(*System) error
		value func(*System) string
		want  string
	}{
		{Mesa, func(s *System) error { return s.BootSource("return 6*7;") },
			func(s *System) string { return fmt.Sprint(s.Stack()) }, "[42]"},
		{BCPL, func(s *System) error {
			a := s.Asm()
			a.OpB("LDK", 40).OpB("ADDK", 2).Op("HALT")
			return s.Boot(a)
		}, func(s *System) string { return fmt.Sprint(s.Acc()) }, "42"},
		{Lisp, func(s *System) error { return s.BootSource("(+ 40 2)") },
			func(s *System) string { return fmt.Sprint(s.LispStack()) }, "[[1 42]]"},
		{Smalltalk, func(s *System) error {
			return s.BootSource("(class C (n) (method value () (field n))) (instance c C 21) (send c value)")
		}, func(s *System) string { return fmt.Sprint(s.Stack()) }, fmt.Sprint([]uint16{21<<1 | 1})},
	}
	const perLanguage = 3
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*perLanguage)
	for _, tc := range cases {
		for g := 0; g < perLanguage; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 2; i++ {
					sys, err := New(WithLanguage(tc.lang))
					if err == nil {
						err = tc.boot(sys)
					}
					if err != nil {
						errs <- fmt.Errorf("%v: %v", tc.lang, err)
						return
					}
					if !sys.Run(1_000_000) {
						errs <- fmt.Errorf("%v: did not halt", tc.lang)
						return
					}
					if got := tc.value(sys); got != tc.want {
						errs <- fmt.Errorf("%v: result %s, want %s", tc.lang, got, tc.want)
						return
					}
				}
			}()
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionWriteIsPrivate runs two translated Mesa sessions at once, on
// two goroutines, over the one shared Mesa image. Halfway through its
// runs one session writes a microstore word the image holds as HALT: its
// translator is flushed, and the other session's microstore, its answer
// and the image itself stay as they were. Under the race detector a
// write into the shared image would also be reported as a race.
func TestSessionWriteIsPrivate(t *testing.T) {
	const addr = Addr(0xFFF)
	mesa := func() *System {
		sys, err := New(WithLanguage(Mesa), WithConfig(Config{Translation: Translation{Enable: true}}))
		if err == nil {
			err = sys.BootSource("var s = 0; var i = 1; while i <= 100 { s = s + i; i = i + 1; } return s;")
		}
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	writer, reader := mesa(), mesa()
	held := reader.Machine.IM(addr)
	w := Word{ALUOp: uint8(microcode.ALUAplus1), ASel: microcode.ASelT, LC: microcode.LCLoadT}
	if held == w {
		t.Fatal("the image already holds the word the test writes")
	}
	var wg sync.WaitGroup
	var flushed bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		writer.Machine.RunCycles(1000)
		before := writer.Machine.TranslationStats().Invalidations
		writer.Machine.SetIM(addr, w)
		flushed = writer.Machine.TranslationStats().Invalidations == before+1
		writer.Run(1_000_000)
	}()
	go func() {
		defer wg.Done()
		for range 20 {
			reader.Machine.RunCycles(100)
		}
		reader.Run(1_000_000)
	}()
	wg.Wait()
	if !flushed {
		t.Error("the write did not flush the writer's translator")
	}
	if got := writer.Machine.IM(addr); got != w {
		t.Errorf("the writer reads %+v at %v, want %+v", got, addr, w)
	}
	if got := reader.Machine.IM(addr); got != held {
		t.Errorf("the other session reads %+v at %v, want %+v", got, addr, held)
	}
	for _, s := range []*System{writer, reader} {
		if got := fmt.Sprint(s.Stack()); got != "[5050]" {
			t.Errorf("a session computed %s, want [5050]", got)
		}
	}
	for _, err := range []error{core.CheckImages(), ifu.CheckTables()} {
		if err != nil {
			t.Error(err)
		}
	}
}

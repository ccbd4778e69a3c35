package dorado

import (
	"fmt"
	"sync"
	"testing"
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

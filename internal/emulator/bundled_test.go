package emulator

import (
	"sync"
	"testing"
)

// TestBundledConcurrentFirstUse calls fresh accessors from several
// goroutines at once: the first use assembles one Program, every caller
// receives it, and its microcode and decode table match the process's
// shared emulator, since assembly is deterministic.
func TestBundledConcurrentFirstUse(t *testing.T) {
	for _, tc := range []struct {
		shared, fresh func() *Program
	}{
		{Mesa, bundled(emitMesaHandlers, finishMesa)},
		{BCPL, bundled(emitBCPLHandlers, finishBCPL)},
		{Lisp, bundled(emitLispHandlers, finishLisp)},
		{Smalltalk, bundled(emitSmalltalkHandlers, finishSmalltalk)},
	} {
		got := make([]*Program, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = tc.fresh()
			}()
		}
		wg.Wait()
		want := tc.shared()
		for _, p := range got[1:] {
			if p != got[0] {
				t.Fatalf("%s: concurrent first calls returned %p and %p, want one Program", want.Name, got[0], p)
			}
		}
		if p := got[0]; p.Micro.Words != want.Micro.Words || p.Table != want.Table || p.Boot != want.Boot {
			t.Errorf("%s: a second assembly differs from the shared emulator", want.Name)
		}
	}
}

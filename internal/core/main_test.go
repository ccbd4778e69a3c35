package core

import (
	"fmt"
	"os"
	"testing"

	"dorado/internal/ifu"
	"dorado/internal/memory"
)

// TestMain runs the suite, then fails it if anything wrote the zero page
// that every machine's unwritten storage reads, which a fresh one-page
// memory system reads throughout, or a shared microstore or decode table
// (NewImage): a stray write to any of them would show up in every
// machine in the process.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, err := range []error{CheckImages(), ifu.CheckTables()} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	s, err := memory.New(memory.Config{StorageWords: memory.PageWords})
	if err != nil {
		panic(err)
	}
	for va := uint32(0); va < memory.PageWords; va++ {
		if v := s.Peek(va); v != 0 {
			fmt.Fprintf(os.Stderr, "core: unwritten storage reads %#04x at %#x: the shared zero page was written\n", v, va)
			code = 1
			break
		}
	}
	os.Exit(code)
}

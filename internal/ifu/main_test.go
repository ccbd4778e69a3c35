package ifu

import (
	"fmt"
	"os"
	"testing"
)

// TestMain runs the suite, then fails it if anything wrote a shared
// decode table, which every unit that installed it reads: a stray write
// there would show up in every machine in the process.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := CheckTables(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

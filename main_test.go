package dorado

import (
	"fmt"
	"os"
	"testing"

	"dorado/internal/core"
	"dorado/internal/ifu"
)

// TestMain runs the suite, then fails it if anything wrote a shared
// microstore or decode table, which every system of a bundled language
// points at: a stray write there would show up in every system in the
// process.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, err := range []error{core.CheckImages(), ifu.CheckTables()} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

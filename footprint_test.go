package dorado

import (
	"runtime"
	"testing"
)

// bootedMesa builds a Mesa system, boots a compiled program and runs it
// to its halt: a fleet session right after its first run.
func bootedMesa(t *testing.T) *System {
	t.Helper()
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BootSource("return 6*7;"); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(1_000_000) {
		t.Fatal("did not halt")
	}
	return sys
}

// TestBuildFootprint pins what a machine allocates when it is built: a
// Mesa system, and a Mesa system onto which a booted session's snapshot
// is restored (the fleet's revive and fork), each allocate under 64 KiB
// (38 and 46 KiB). A machine holds only the storage pages it has
// written, so neither pays for the million-word storage image, which
// alone is 2 MiB, and it points at the shared all-HALT and Mesa
// microstores and decode table, so neither pays for a 168 KiB microstore
// of its own.
func TestBuildFootprint(t *testing.T) {
	snap := bootedMesa(t).Machine.Snapshot()
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"New", func() {
			if _, err := New(WithLanguage(Mesa)); err != nil {
				t.Fatal(err)
			}
		}},
		{"New and Restore", func() {
			sys, err := New(WithLanguage(Mesa))
			if err == nil {
				err = sys.Machine.Restore(snap)
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
	} {
		const reps = 8
		c.build()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			c.build()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / reps
		t.Logf("%s allocates %d KiB", c.name, per>>10)
		if per >= 64<<10 {
			t.Errorf("%s allocates %d KiB, want under 64 KiB", c.name, per>>10)
		}
	}
}

// TestSessionFootprint measures the heap that each live booted Mesa
// session holds, over 64 of them, and requires at most 64 KiB (45 KiB):
// the figure that says how many sessions a host's memory holds. The
// sessions share the Mesa microstore and decode table.
func TestSessionFootprint(t *testing.T) {
	const n = 64
	sessions := make([]*System, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range sessions {
		sessions[i] = bootedMesa(t)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(sessions)
	t.Logf("%d live booted Mesa sessions hold %d KiB of heap each (%d sessions per GiB)", n, per>>10, (1<<30)/max(per, 1))
	if per > 64<<10 {
		t.Errorf("a live booted Mesa session holds %d KiB of heap, want at most 64 KiB", per>>10)
	}
}

package bench

import (
	"strings"
	"testing"

	"dorado/internal/core"
	"dorado/internal/obs/prof"
)

func TestRunProfileReport(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled measurement in -short")
	}
	rep, err := RunProfileReport(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(HostWorkloads()) {
		t.Fatalf("%d workload profiles, want %d", len(rep.Workloads), len(HostWorkloads()))
	}
	for _, w := range rep.Workloads {
		if len(w.Profile.Addrs) == 0 {
			t.Errorf("%s: empty profile", w.ID)
		}
		// Every workload must carry a non-empty abort-reason breakdown —
		// the artifact cmd/profview and benchtab -profile render.
		var exits uint64
		for _, n := range w.Profile.Exits {
			exits += n
		}
		if exits == 0 {
			t.Errorf("%s: no superblock exits recorded", w.ID)
		}
		symbolized := false
		for _, a := range w.Profile.Addrs {
			// Unsymbolized rows fall back to the bare "page.word" form.
			if a.Cycles > 0 && a.Name != a.Addr.String() {
				symbolized = true
				break
			}
		}
		if !symbolized {
			t.Errorf("%s: no symbolized hot address", w.ID)
		}
	}
}

// TestDiskFusedCyclesAreTask0 pins where translation's gain on the disk
// workload comes from. The sector loop's closing word carries the Block
// bit, so every block starting in the disk routine is task0Only and task
// 11 never enters one: all fused cycles belong to the emu block, task 0's
// one-word counting loop unrolled to the block limit.
func TestDiskFusedCyclesAreTask0(t *testing.T) {
	m, err := BuildDiskMachine(core.Config{Translation: core.Translation{Enable: true}})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProfiler()
	m.SetProfiler(p)
	m.RunCycles(200_000)
	syms, err := workloadSymbols("disk")
	if err != nil {
		t.Fatal(err)
	}
	fused := m.TranslationStats().FusedCycles
	if fused == 0 {
		t.Fatal("translated disk machine fused no cycles")
	}
	diskBlocks, emuCycles := 0, uint64(0)
	for _, b := range prof.Build(p.Snapshot(), prof.NewSymbolTable(syms)).Blocks {
		switch {
		case strings.HasPrefix(b.Name, "disk"):
			diskBlocks++
			if b.Entries != 0 {
				t.Errorf("block %s: %d entries, want 0 (task0Only, and the disk runs as task 11)", b.Name, b.Entries)
			}
		case b.Name == "emu":
			emuCycles = b.Cycles
		}
	}
	if diskBlocks == 0 {
		t.Error("no block was built in the disk routine")
	}
	if emuCycles != fused {
		t.Errorf("emu block fused %d cycles, want all %d fused cycles", emuCycles, fused)
	}
}

package core_test

import (
	"testing"

	"dorado"
	"dorado/internal/bench"
	"dorado/internal/core"
)

// templateMixMesa has the shape of perfbench's Mesa programs: a main loop
// over a recursive kernel (calls and returns), an arithmetic loop and a
// bitwise loop.
const templateMixMesa = `func rec(n) { if n < 2 { return n + 5; } return rec(n - 1) + rec(n - 2); }
func mix(a, b) { var i = 0; while i < 9 { a = a * 7 + b; b = b ^ (a << 3); i = i + 1; } return a - b; }
func bits(x) { var c = 0; var i = 0; while i < 9 { c = c + (x & 93); x = (x ^ (x << 2)) | 4660; i = i + 1; } return c; }
var acc = 31337;
while 1 {
    acc = acc + rec(7);
    acc = mix(acc, 2024);
    acc = acc ^ bits(acc);
    global 2 = acc;
}
`

// TestTemplateMix pins how many fused slots each template builds — the
// register/stack ALU template, the memory/MD template, and exec — on every
// §7 workload and a booted Mesa program, after a warm-up. Blocks are built
// at the first visit to an address, and which template takes a word is
// decided at translation time alone, so these counts move only when a
// word changes template or the cycle loop starts blocks elsewhere.
func TestTemplateMix(t *testing.T) {
	const warm = 300_000
	type mix struct{ alu, mem, exec int }
	want := map[string]mix{
		"emulator":  {0, 0, 5},
		"disk":      {48, 48, 96},
		"fastio":    {96, 0, 48},
		"slowio":    {49, 0, 1},
		"bitblt":    {12, 16, 50},
		"mesacalls": {11, 25, 33},
		"mesa":      {11, 25, 33},
	}
	cfg := core.Config{Translation: core.Translation{Enable: true}}
	check := func(id string, m *core.Machine) {
		t.Helper()
		m.RunCycles(warm)
		alu, mem, exec := core.TemplateMix(m)
		if got := (mix{alu, mem, exec}); got != want[id] {
			t.Errorf("%s: ALU/memory/exec slots = %d/%d/%d, want %d/%d/%d",
				id, alu, mem, exec, want[id].alu, want[id].mem, want[id].exec)
		}
	}
	for _, w := range bench.Workloads() {
		m, err := w.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.ID, err)
		}
		check(w.ID, m)
	}
	sys, err := dorado.New(dorado.WithLanguage(dorado.Mesa), dorado.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BootSource(templateMixMesa); err != nil {
		t.Fatal(err)
	}
	check("mesa", sys.Machine)
}

// TestRunLengthKeepsBlocks: a run whose budget stops it inside a block
// continues that block when the next run starts, so a machine run in
// short pieces builds exactly the blocks one long run builds, and none at
// the addresses where the pieces happened to stop.
func TestRunLengthKeepsBlocks(t *testing.T) {
	const cycles, piece = 60_000, 997
	cfg := core.Config{Translation: core.Translation{Enable: true}}
	for _, w := range bench.Workloads() {
		one, err := w.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pieces, err := w.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		one.RunCycles(cycles)
		for pieces.Cycle() < one.Cycle() && !pieces.Halted() {
			pieces.RunCycles(min(piece, one.Cycle()-pieces.Cycle()))
		}
		a, b := one.TranslationStats(), pieces.TranslationStats()
		if a.BlocksBuilt != b.BlocksBuilt || a.Instructions != b.Instructions || a.FusedCycles != b.FusedCycles {
			t.Errorf("%s: one run built %d blocks (%d words, %d fused cycles), pieces %d (%d, %d)",
				w.ID, a.BlocksBuilt, a.Instructions, a.FusedCycles, b.BlocksBuilt, b.Instructions, b.FusedCycles)
		}
	}
}

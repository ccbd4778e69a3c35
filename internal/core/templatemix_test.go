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
// §7 workload and a booted Mesa program, after a warm-up with the default
// translation settings. Which template takes a word is decided at
// translation time alone, so these counts move only when a word changes
// template.
func TestTemplateMix(t *testing.T) {
	const warm = 300_000
	type mix struct{ alu, mem, exec int }
	want := map[string]mix{
		"emulator":  {0, 0, 5},
		"disk":      {48, 48, 96},
		"fastio":    {96, 0, 48},
		"slowio":    {1, 0, 1},
		"bitblt":    {4, 14, 0},
		"mesacalls": {12, 41, 37},
		"mesa":      {12, 41, 39},
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
	sys, err := dorado.New(dorado.WithLanguage(dorado.Mesa), dorado.WithTranslation(cfg.Translation))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BootSource(templateMixMesa); err != nil {
		t.Fatal(err)
	}
	check("mesa", sys.Machine)
}

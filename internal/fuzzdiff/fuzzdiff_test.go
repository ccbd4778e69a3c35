package fuzzdiff

import (
	"strings"
	"testing"

	"dorado/internal/core"
)

// checkClean runs seeds 1..n on one shape and fails on any divergence:
// both fast paths must agree with the reference at every checkpoint (each
// clean seed is a miniature differential test over a program nobody
// hand-wrote, including device wakeups, holds, and task switches).
func checkClean(t *testing.T, shape Shape, n int64) {
	t.Helper()
	for seed := int64(1); seed <= n; seed++ {
		res, err := Run(Config{Seed: seed, Cycles: 4000, CheckpointEvery: 256, Shape: shape})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range res.Divergences {
			t.Errorf("seed %d: %v\n%s", seed, d, d.Repro)
		}
	}
}

// TestCleanSeeds sweeps bare machines on the predecoded and translated
// paths together.
func TestCleanSeeds(t *testing.T) { checkClean(t, Bare, 8) }

// TestCleanSeedsTranslated holds the translated lane of the same sweep to
// account: no seed may report a translated divergence, and the lane must
// really run fused superblocks, so its agreement speaks for the translator
// and not for the generic step it falls back on.
func TestCleanSeedsTranslated(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := Config{Seed: seed, Cycles: 4000, CheckpointEvery: 256}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range res.Divergences {
			if d.Path == Translated {
				t.Errorf("seed %d: %v\n%s", seed, d, d.Repro)
			}
		}
		cfg = cfg.withDefaults()
		prog, err := generate(cfg.Seed, cfg.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		m, err := buildMachine(prog, cfg, Translated)
		if err != nil {
			t.Fatal(err)
		}
		m.RunCycles(res.Cycles)
		if st := m.TranslationStats(); st.FusedCycles == 0 {
			t.Errorf("seed %d: the translated lane fused no cycles in %d: %+v", seed, res.Cycles, st)
		}
	}
}

// TestCleanSeedsFastIO widens the sweep to the device-driven configuration:
// a display and a scanner moving 16-word blocks through the fast-I/O path
// on all three machines.
func TestCleanSeedsFastIO(t *testing.T) { checkClean(t, FastIO, 4) }

// flipRM5On flips a bit in RM 5 on one fast path at a fixed cycle.
func flipRM5On(path Path, at uint64) func(uint64, Path, *core.Machine) {
	return func(cycle uint64, p Path, fast *core.Machine) {
		if p == path && cycle == at {
			fast.SetRM(5, fast.RM(5)^0x8000)
		}
	}
}

// checkInjectedFault proves the snapshot-anchored machinery on one path: a
// fault injected there at a known cycle must be detected at the next
// checkpoint and bisected back to exactly that cycle, and the other path,
// untouched, must report nothing.
func checkInjectedFault(t *testing.T, path Path) *Divergence {
	t.Helper()
	const faultCycle = 1234
	res, err := Run(Config{
		Seed:            3,
		Cycles:          4000,
		CheckpointEvery: 512,
		Tamper:          flipRM5On(path, faultCycle),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 1 {
		t.Fatalf("%d divergences, want 1 (the %v path's): %v", len(res.Divergences), path, res.Divergences)
	}
	d := res.Divergences[0]
	if d.Path != path {
		t.Fatalf("divergence names the %v path, fault was injected on %v", d.Path, path)
	}
	if d.Cycle != faultCycle {
		t.Fatalf("bisected to cycle %d, fault was injected at %d", d.Cycle, faultCycle)
	}
	if !strings.Contains(d.Repro, "TestFuzzDiffSeed3") || !strings.Contains(d.Repro, "Seed:            3") {
		t.Errorf("repro test case malformed:\n%s", d.Repro)
	}
	return d
}

func TestBisectLocalizesInjectedFault(t *testing.T) { checkInjectedFault(t, Predecoded) }

// TestBisectLocalizesInjectedFaultTranslated: bisection works when the
// diverging path is the translator (advanced via RunCycles(1)).
func TestBisectLocalizesInjectedFaultTranslated(t *testing.T) {
	d := checkInjectedFault(t, Translated)
	if !strings.Contains(d.Repro, "the translated path diverged") {
		t.Errorf("repro does not name the translated path:\n%s", d.Repro)
	}
}

// TestEachPathBisectsOnItsOwn: a divergence on one path hides none on the
// other. With predecoded broken at cycle 300 and translated at 900, the
// run keeps stepping translated against the reference after predecoded
// leaves it, and reports each at its own cycle.
func TestEachPathBisectsOnItsOwn(t *testing.T) {
	pre, tr := flipRM5On(Predecoded, 300), flipRM5On(Translated, 900)
	res, err := Run(Config{
		Seed:            5,
		Cycles:          2000,
		CheckpointEvery: 256,
		Shape:           Devices,
		Tamper: func(cycle uint64, p Path, fast *core.Machine) {
			pre(cycle, p, fast)
			tr(cycle, p, fast)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Path]uint64{Predecoded: 300, Translated: 900}
	if len(res.Divergences) != len(want) {
		t.Fatalf("%d divergences, want %d: %v", len(res.Divergences), len(want), res.Divergences)
	}
	for _, d := range res.Divergences {
		if d.Cycle != want[d.Path] {
			t.Errorf("%v path bisected to cycle %d, want %d", d.Path, d.Cycle, want[d.Path])
		}
		delete(want, d.Path)
	}
	if len(want) != 0 {
		t.Errorf("no divergence reported for %v", want)
	}
	if res.Cycles < 900 {
		t.Errorf("the reference stopped at cycle %d, before the translated fault", res.Cycles)
	}
}

// TestRunResultAccounting: Run must report the cycles actually simulated
// so campaign throughput numbers mean something.
func TestRunResultAccounting(t *testing.T) {
	res, err := Run(Config{Seed: 5, Cycles: 3000, CheckpointEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 5 {
		t.Errorf("Seed = %d, want 5", res.Seed)
	}
	if len(res.Divergences) == 0 && !res.Halted && res.Cycles != 3000 {
		t.Errorf("Cycles = %d, want 3000 for a full clean run", res.Cycles)
	}
	if res.Cycles == 0 {
		t.Error("Cycles = 0: accounting missing")
	}
}

// TestGenerateDeterministic: the same seed must always produce the same
// program, or printed repros would be worthless.
func TestGenerateDeterministic(t *testing.T) {
	a, err := generate(7, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7, 24)
	if err != nil {
		t.Fatal(err)
	}
	if a.Words != b.Words {
		t.Fatal("same seed generated different programs")
	}
}

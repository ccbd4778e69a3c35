package fuzzfarm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dorado/internal/core"
	"dorado/internal/fuzzdiff"
)

// flipRM5 is the standard seeded bug (the same injector the fuzzdiff
// bisection tests use): flip a bit in RM 5 on both fast paths at a fixed
// cycle, so every seed on every shape diverges on both paths — and the
// farm had better find all of them.
func flipRM5(at uint64) func(uint64, fuzzdiff.Path, *core.Machine) {
	return func(cycle uint64, _ fuzzdiff.Path, fast *core.Machine) {
		if cycle == at {
			fast.SetRM(5, fast.RM(5)^0x8000)
		}
	}
}

// perSeed is the number of findings a seed yields when every run diverges
// on both fast paths.
const perSeed = int(fuzzdiff.NumShapes) * 2

// tamperedConfig is the shared self-test campaign: every seed diverges at
// cycle 300, budgets kept small (tampered runs single-step, and every
// divergence pays a bisection plus minimization reruns) so the whole
// matrix stays fast even under -race.
func tamperedConfig(seeds int64) Config {
	return Config{
		Seeds:  seeds,
		Fuzz:   fuzzdiff.Config{Cycles: 600, CheckpointEvery: 256},
		Tamper: flipRM5(300),
	}
}

// TestReportDeterminism is the farm's core contract: the same seeds
// produce the identical report, modulo wall-clock fields, for any worker
// count. Per-seed fuzz runs are pure functions of their Config, so the
// order workers finish seeds in is free to be whatever the scheduler
// likes.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign matrix is slow")
	}
	var want string
	for _, workers := range []int{1, 3} {
		cfg := tamperedConfig(16)
		cfg.Workers = workers
		rep, err := Run(tctx(t), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Divergences != 16*perSeed {
			t.Fatalf("workers=%d: %d divergences, want %d (every seed x shape x fast path is tampered)",
				workers, rep.Divergences, 16*perSeed)
		}
		for _, f := range rep.Findings {
			if f.Cycle != 300 || f.MinCycles != 301 {
				t.Errorf("workers=%d: finding %s/%s/%d at cycle %d, minimized to %d cycles; want 300 and 301",
					workers, f.Shape, f.Path, f.Seed, f.Cycle, f.MinCycles)
			}
		}
		rep.StripTiming()
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if got := string(b); want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: report differs from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestFarmSinglePathTamper: a bug seeded in one fast path yields exactly
// one finding per (seed, shape), naming that path; the other path, run
// against the same reference, reports nothing.
func TestFarmSinglePathTamper(t *testing.T) {
	for _, path := range []fuzzdiff.Path{fuzzdiff.Predecoded, fuzzdiff.Translated} {
		cfg := tamperedConfig(3)
		flip := flipRM5(300)
		cfg.Tamper = func(cycle uint64, p fuzzdiff.Path, fast *core.Machine) {
			if p == path {
				flip(cycle, p, fast)
			}
		}
		rep, err := Run(tctx(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) != 0 {
			t.Fatalf("%v: harness errors: %v", path, rep.Errors)
		}
		seen := map[string]bool{}
		for _, f := range rep.Findings {
			unit := fmt.Sprintf("%s/%d", f.Shape, f.Seed)
			if f.Path != path.String() || seen[unit] || f.Cycle != 300 {
				t.Errorf("tampering %v: unexpected finding %s %s cycle %d", path, unit, f.Path, f.Cycle)
			}
			seen[unit] = true
		}
		if want := 3 * int(fuzzdiff.NumShapes); len(seen) != want || rep.Divergences != want {
			t.Errorf("tampering %v: %d findings over %d (seed, shape) pairs, want %d", path, rep.Divergences, len(seen), want)
		}
	}
}

// TestFarmFindsSeededBug is the end-to-end self-test: a tampered campaign
// must detect every injected divergence, minimize each one, and bank
// deduped regression tests in the corpus directory.
func TestFarmFindsSeededBug(t *testing.T) {
	dir := t.TempDir()
	cfg := tamperedConfig(4)
	cfg.CorpusDir = dir
	rep, err := Run(tctx(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDiv := 4 * perSeed
	if rep.Divergences != wantDiv || len(rep.Findings) != wantDiv {
		t.Fatalf("found %d divergences (%d findings), want %d", rep.Divergences, len(rep.Findings), wantDiv)
	}
	if rep.Interrupted {
		t.Error("campaign marked interrupted without cancellation")
	}
	if len(rep.Errors) != 0 {
		t.Errorf("harness errors: %v", rep.Errors)
	}

	keys := map[string]string{}
	for _, f := range rep.Findings {
		if f.Cycle != 300 {
			t.Errorf("finding %s/%s/%d: divergence at cycle %d, fault injected at 300", f.Shape, f.Path, f.Seed, f.Cycle)
		}
		if f.MinCycles != 301 {
			t.Errorf("finding %s/%s/%d: MinCycles = %d, want 301 (cycle shrink to one past the fault)",
				f.Shape, f.Path, f.Seed, f.MinCycles)
		}
		if f.MinInstructions <= 0 || f.Key == "" || f.CorpusFile == "" {
			t.Errorf("finding %s/%s/%d incomplete: %+v", f.Shape, f.Path, f.Seed, f)
		}
		if !strings.Contains(f.Repro, "fuzzdiff.Run(fuzzdiff.Config{") {
			t.Errorf("finding %s/%s/%d: repro is not a pasteable test:\n%s", f.Shape, f.Path, f.Seed, f.Repro)
		}
		if prev, ok := keys[f.Key]; ok && prev != f.CorpusFile {
			t.Errorf("key %s maps to two corpus files: %s and %s", f.Key, prev, f.CorpusFile)
		}
		keys[f.Key] = f.CorpusFile
	}

	// One corpus entry per distinct key, each a .go.txt regression test.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Errorf("%d corpus files for %d distinct keys", len(entries), len(keys))
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go.txt") {
			t.Errorf("corpus entry %s: want .go.txt (must never join a build)", e.Name())
		}
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), "func TestFuzzDiffSeed") {
			t.Errorf("corpus entry %s has no test function:\n%s", e.Name(), body)
		}
	}

	// Re-running the identical campaign dedupes against the existing corpus:
	// same findings, zero new files.
	rep2, err := Run(tctx(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Divergences != wantDiv {
		t.Fatalf("second run found %d divergences, want %d", rep2.Divergences, wantDiv)
	}
	again, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(entries) {
		t.Errorf("corpus grew from %d to %d files on an identical re-run (dedupe broken)", len(entries), len(again))
	}
}

// TestFarmCleanCampaign: a small clean campaign over every shape must
// report zero divergences and full accounting — the smoke-sized version
// of the nightly CI invariant.
func TestFarmCleanCampaign(t *testing.T) {
	rep, err := Run(tctx(t), Config{
		Seeds: 4,
		Fuzz:  fuzzdiff.Config{Cycles: 3000, CheckpointEvery: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergences != 0 || len(rep.Findings) != 0 {
		t.Fatalf("clean campaign found divergences: %+v", rep.Findings)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("harness errors: %v", rep.Errors)
	}
	if rep.SeedsRun != 4 || rep.Interrupted {
		t.Errorf("SeedsRun = %d, Interrupted = %t; want 4, false", rep.SeedsRun, rep.Interrupted)
	}
	if rep.Cycles == 0 {
		t.Error("Cycles = 0: throughput accounting missing")
	}
}

// TestFarmGracefulCancel: cancelling mid-campaign stops cleanly — the
// seeds already taken finish, no further seed starts, and the report says
// Interrupted and covers exactly a prefix of the seeds.
func TestFarmGracefulCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := tamperedConfig(64)
	cfg.Workers = 2
	// Cancel as soon as the first seed completes: the workers must stop
	// taking seeds at their next context check.
	cfg.Progress = func(done, total int64) { once.Do(cancel) }
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("report not marked Interrupted after cancellation")
	}
	if rep.SeedsRun == 0 || rep.SeedsRun >= 64 {
		t.Fatalf("SeedsRun = %d, want partial progress in (0, 64)", rep.SeedsRun)
	}
	// Every seed run yields perSeed findings, so the findings name the
	// seeds that ran.
	if rep.Divergences != int(rep.SeedsRun)*perSeed {
		t.Fatalf("%d findings for %d seeds run, want %d each", rep.Divergences, rep.SeedsRun, perSeed)
	}
	for i, f := range rep.Findings {
		if want := rep.StartSeed + int64(i/perSeed); f.Seed != want {
			t.Fatalf("finding %d is for seed %d, want %d: the seeds run are not a prefix", i, f.Seed, want)
		}
	}
}

// TestMinimizeShrinksCycles checks the minimizer directly: the cycle budget
// must shrink to one past the divergence while reproducing the identical
// (path, PC, word) triple, for each fast path.
func TestMinimizeShrinksCycles(t *testing.T) {
	cfg := fuzzdiff.Config{Seed: 3, Cycles: 4000, CheckpointEvery: 512, Tamper: flipRM5(1234)}
	res, err := fuzzdiff.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 2 {
		t.Fatalf("%d divergences, want one per fast path", len(res.Divergences))
	}
	for _, d := range res.Divergences {
		best, bestD := minimize(cfg, d, 8)
		if best.Cycles != d.Cycle+1 {
			t.Errorf("%v: minimized Cycles = %d, want %d", d.Path, best.Cycles, d.Cycle+1)
		}
		if bestD.Path != d.Path || bestD.PC != d.PC || bestD.Word != d.Word {
			t.Errorf("minimized divergence moved: %v pc %v word %+v, want %v pc %v word %+v",
				bestD.Path, bestD.PC, bestD.Word, d.Path, d.PC, d.Word)
		}
		if best.Instructions > cfg.Normalized().Instructions {
			t.Errorf("%v: minimization grew the program: %d > %d", d.Path, best.Instructions, cfg.Normalized().Instructions)
		}
		// Negative attempts disables minimization entirely.
		same, sameD := minimize(cfg, d, -1)
		if same.Cycles != cfg.Normalized().Cycles || sameD != d {
			t.Errorf("%v: minimize(-1) modified the config or divergence", d.Path)
		}
	}
}

// TestReproCompilesAndPasses is the compile-and-run check on generated
// repros: the farm writes a minimized Divergence.Repro into a throwaway
// package inside the repository (internal packages are invisible outside
// the module tree) and `go test`s it. The repro encodes a tampered run
// re-executed without the tamper, so the test must compile, run, and pass.
func TestReproCompilesAndPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a go test subprocess")
	}
	res, err := fuzzdiff.Run(fuzzdiff.Config{Seed: 3, Cycles: 2000, CheckpointEvery: 256, Tamper: flipRM5(700)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) == 0 {
		t.Fatal("seeded fault not detected")
	}
	d := res.Divergences[0]

	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test source for repo root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(self))) // internal/fuzzfarm -> repo root
	dir, err := os.MkdirTemp(root, "reprocheck")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	src := `// Package reprocheck is a generated throwaway: it exists only while
// fuzzfarm's TestReproCompilesAndPasses verifies a divergence repro
// compiles and passes verbatim.
package reprocheck

import (
	"testing"

	"dorado/internal/fuzzdiff"
)

` + d.Repro
	if err := os.WriteFile(filepath.Join(dir, "repro_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "test", "-count=1", "./"+filepath.Base(dir))
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated repro failed to compile or pass:\n%s\n--- repro ---\n%s", out, d.Repro)
	}
}

// tctx returns a plain background context (kept as a helper so tests read
// uniformly; the repo targets Go 1.22, which has no t.Context).
func tctx(t *testing.T) context.Context {
	t.Helper()
	return context.Background()
}

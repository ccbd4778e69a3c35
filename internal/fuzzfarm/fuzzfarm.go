// Package fuzzfarm is the differential fuzz farm: it runs deterministic
// fuzzdiff seeds across a bounded worker pool and aggregates the results
// into one campaign report, turning the fleet's cross-session parallelism
// discipline into overnight interpreter verification.
//
// The farm exists because the repository carries three execution paths
// that must stay byte-identical forever — the reference interpreter, the
// predecoded hot loop, and the superblock translator — and the cheapest
// way to keep them honest is volume: millions of generated microprograms.
// A seed is the work unit: its program runs on each device shape
// (fuzzdiff.Shape), each run stepping all three paths in lockstep, and
// either agrees at every snapshot checkpoint or bisects each diverging
// fast path to the exact microinstruction (internal/fuzzdiff). Work units
// are embarrassingly parallel (the NOP parallel-deployment argument from
// the related work: many simple independent units behind a scheduler), so
// the farm is a scheduler, not a simulator: Config.Workers goroutines pull
// one seed at a time, and everything a seed computes is a pure function of
// the seed — the report is byte-identical for any worker count, modulo
// wall-clock fields.
//
// A divergence is minimized before it is reported (shrink the cycle budget
// to just past the divergence, then the program size while the same
// microword still diverges at the same microstore address — see minimize)
// and emitted into a corpus directory as a ready-to-paste regression test,
// content-addressed by (PC, microword, detail prefix) so ten seeds hitting
// the same underlying bug dedupe to one corpus entry.
package fuzzfarm

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dorado/internal/core"
	"dorado/internal/fuzzdiff"
)

// minimizeAttempts bounds the program-shrinking ladder (see minimize).
const minimizeAttempts = 8

// Config describes one campaign. The zero value is not runnable; Seeds
// must be positive. Everything except Workers affects the divergence set;
// Workers affects only how fast the campaign completes. Cancel the
// context passed to Run to time-box a campaign.
type Config struct {
	// StartSeed is the first seed (default 1).
	StartSeed int64
	// Seeds is the number of seeds to run. Required.
	Seeds int64
	// Workers bounds the goroutines running seeds (default GOMAXPROCS,
	// clamped to Seeds). Like the fleet's worker pool, parallelism is a
	// bound, not a structure: any worker may run any seed.
	Workers int
	// Fuzz is the per-seed template: Instructions, Cycles, CheckpointEvery
	// are taken from it (zero values pick the fuzzdiff defaults); Seed,
	// Shape, and Tamper are overwritten per run.
	Fuzz fuzzdiff.Config
	// CorpusDir, when set, receives one ready-to-paste regression test per
	// distinct minimized divergence (see corpus.go for the format).
	CorpusDir string
	// Tamper, when set, is installed on every run's fast paths — the
	// fault-injection hook (fuzzdiff.Config.Tamper) the farm's self-test
	// uses to prove a seeded bug is detected, minimized, and reported end
	// to end.
	Tamper func(cycle uint64, path fuzzdiff.Path, fast *core.Machine)
	// Progress, when set, is called after every completed seed with the
	// number of seeds finished and the campaign total. Calls are
	// serialized.
	Progress func(done, total int64)
}

// Finding is one minimized divergence in the campaign report.
type Finding struct {
	// Shape and Path name the device shape and the fast path that
	// diverged.
	Shape string `json:"shape"`
	Path  string `json:"path"`
	// Seed is the generating seed.
	Seed int64 `json:"seed"`
	// Cycle, Task, PC, and Word pin the first diverging microinstruction
	// (of the original, un-minimized run).
	Cycle uint64 `json:"cycle"`
	Task  int    `json:"task"`
	PC    uint16 `json:"pc"`
	// Word is the offending microword, formatted; Raw is its 34-bit
	// encoding.
	Word string `json:"word"`
	Raw  uint64 `json:"raw"`
	// Detail locates the first differing snapshot byte.
	Detail string `json:"detail"`
	// Key is the content address — a hash of (PC, Raw, detail prefix) —
	// that findings dedupe on in the corpus.
	Key string `json:"key"`
	// MinInstructions and MinCycles are the minimized reproduction size
	// (equal to the originals when minimization could not shrink them).
	MinInstructions int    `json:"min_instructions"`
	MinCycles       uint64 `json:"min_cycles"`
	// Repro is the minimized ready-to-paste regression test.
	Repro string `json:"repro"`
	// CorpusFile is the corpus entry this finding was written to (or
	// deduped into); empty when the campaign ran without a corpus dir.
	CorpusFile string `json:"corpus_file,omitempty"`
}

// Report is the campaign result. For a completed campaign every field
// except the timing ones (ElapsedMS, CyclesPerSec) and Workers is a pure
// function of (StartSeed, Seeds, Fuzz, Tamper) — any worker count
// produces the same report. An interrupted campaign has run a prefix of
// its seeds.
type Report struct {
	StartSeed int64 `json:"start_seed"`
	Seeds     int64 `json:"seeds"`
	Workers   int   `json:"workers"`

	// SeedsRun counts completed seeds (× every shape each); Cycles sums
	// the cycles every run's reference simulated.
	SeedsRun    int64  `json:"seeds_run"`
	Cycles      uint64 `json:"cycles"`
	Divergences int    `json:"divergences"`
	// Findings holds the minimized divergences, sorted by seed, then
	// shape, then path.
	Findings []Finding `json:"findings,omitempty"`
	// Errors holds harness errors (unassemblable seeds, snapshot restore
	// failures), sorted; they fail a CI campaign like divergences do.
	Errors []string `json:"errors,omitempty"`
	// Interrupted reports that the context was canceled before every seed
	// ran; the report covers seeds StartSeed .. StartSeed+SeedsRun-1.
	Interrupted bool `json:"interrupted"`

	// ElapsedMS and CyclesPerSec are wall-clock (timing fields).
	ElapsedMS    int64   `json:"elapsed_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// StripTiming zeroes every wall-clock-dependent field, leaving exactly the
// deterministic part of the report — what the determinism test (and any
// byte-level report diffing) compares.
func (r *Report) StripTiming() {
	r.ElapsedMS = 0
	r.CyclesPerSec = 0
	r.Workers = 0
}

// Run executes the campaign: workers pull seeds in order, every seed runs
// on every shape, divergences are minimized, and (when CorpusDir is set)
// distinct findings become corpus entries. Cancel ctx for a graceful
// stop: in-flight seeds finish, no further seed starts, and the partial
// report comes back with Interrupted set. The error is non-nil only for
// campaign-level failures (an unusable corpus directory); per-seed
// harness errors are collected in Report.Errors instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("fuzzfarm: Config.Seeds must be positive")
	}
	if cfg.StartSeed == 0 {
		cfg.StartSeed = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if int64(cfg.Workers) > cfg.Seeds {
		cfg.Workers = int(cfg.Seeds)
	}

	start := time.Now()
	// Seeds are handed out in order and a taken seed always runs to the
	// end, so the seeds run are always a prefix of the campaign.
	var next atomic.Int64
	results := make(chan seedResult)
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= cfg.Seeds {
					return
				}
				results <- runSeed(cfg, cfg.StartSeed+i)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	rep := &Report{StartSeed: cfg.StartSeed, Seeds: cfg.Seeds, Workers: cfg.Workers}
	for r := range results {
		rep.SeedsRun++
		rep.Cycles += r.cycles
		rep.Findings = append(rep.Findings, r.findings...)
		rep.Errors = append(rep.Errors, r.errors...)
		if cfg.Progress != nil {
			cfg.Progress(rep.SeedsRun, cfg.Seeds)
		}
	}
	rep.Interrupted = rep.SeedsRun < cfg.Seeds
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		return a.Path < b.Path
	})
	sort.Strings(rep.Errors)
	rep.Divergences = len(rep.Findings)

	var corpusErr error
	if cfg.CorpusDir != "" {
		corpusErr = writeCorpus(cfg.CorpusDir, rep.Findings)
	} else {
		// Content addresses are still assigned (reports dedupe by Key even
		// without a corpus on disk).
		for i := range rep.Findings {
			rep.Findings[i].Key = findingKey(&rep.Findings[i])
		}
	}

	elapsed := time.Since(start)
	rep.ElapsedMS = elapsed.Milliseconds()
	if s := elapsed.Seconds(); s > 0 {
		rep.CyclesPerSec = float64(rep.Cycles) / s
	}
	return rep, corpusErr
}

// seedResult is one seed's raw output before aggregation.
type seedResult struct {
	cycles   uint64
	findings []Finding
	errors   []string
}

// runSeed runs one seed on every shape and minimizes each divergence.
func runSeed(cfg Config, seed int64) seedResult {
	var res seedResult
	for shape := range fuzzdiff.NumShapes {
		fcfg := cfg.Fuzz
		fcfg.Seed = seed
		fcfg.Shape = shape
		fcfg.Tamper = cfg.Tamper
		r, err := fuzzdiff.Run(fcfg)
		res.cycles += r.Cycles
		if err != nil {
			res.errors = append(res.errors, fmt.Sprintf("shape %v seed %d: %v", shape, seed, err))
			continue
		}
		for _, d := range r.Divergences {
			mcfg, md := minimize(fcfg, d, minimizeAttempts)
			res.findings = append(res.findings, Finding{
				Shape:           shape.String(),
				Path:            d.Path.String(),
				Seed:            seed,
				Cycle:           d.Cycle,
				Task:            d.Task,
				PC:              uint16(d.PC),
				Word:            fmt.Sprintf("%+v", d.Word),
				Raw:             d.Word.Encode(),
				Detail:          d.Detail,
				MinInstructions: mcfg.Instructions,
				MinCycles:       mcfg.Cycles,
				Repro:           md.Repro,
			})
		}
	}
	return res
}

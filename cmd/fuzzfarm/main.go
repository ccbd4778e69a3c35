// Command fuzzfarm runs a sharded differential-fuzzing campaign: seed
// ranges fan out across a bounded worker pool, every seed runs the full
// machine/path profile mix (reference vs predecoded and vs translated, on
// bare and on fast-I/O device-driven machines, and the devices-session
// shape with the display alone), each divergence is
// minimized and banked as a ready-to-paste regression test in the corpus
// directory, and the whole campaign lands in one JSON report.
//
// Usage:
//
//	fuzzfarm [-start N] [-seeds N] [-shards N] [-workers N]
//	         [-cycles N] [-k N] [-insts N] [-translated]
//	         [-duration D] [-corpus DIR] [-report FILE] [-q]
//
// -translated restricts the mix to the translated profiles (translator
// hunting); the default runs all five. -duration time-boxes the campaign
// for CI: seeds not started by the deadline are skipped and the report is
// marked interrupted. SIGINT/SIGTERM stop the same way — in-flight seeds
// finish and the partial report is still written. Exit status 1 if any
// divergence or harness error was found.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dorado/internal/bench"
	"dorado/internal/fuzzfarm"
)

func main() {
	start := flag.Int64("start", 1, "first seed")
	seeds := flag.Int64("seeds", 256, "number of seeds to run")
	shards := flag.Int("shards", 8, "contiguous seed ranges to schedule")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cycles := flag.Uint64("cycles", 20000, "simulated cycles per work unit")
	k := flag.Uint64("k", 512, "checkpoint interval in cycles")
	insts := flag.Int("insts", 24, "generated instructions per program")
	translated := flag.Bool("translated", false, "run only the translated profiles")
	duration := flag.Duration("duration", 0, "time-box the campaign (0 = run to completion)")
	corpus := flag.String("corpus", "", "directory for deduped regression-test corpus entries")
	report := flag.String("report", "", "write the JSON campaign report to this file")
	quiet := flag.Bool("q", false, "suppress per-seed progress")
	flag.Parse()

	cfg := fuzzfarm.Config{
		StartSeed: *start,
		Seeds:     *seeds,
		Shards:    *shards,
		Workers:   *workers,
		Duration:  *duration,
		CorpusDir: *corpus,
	}
	cfg.Fuzz.Cycles = *cycles
	cfg.Fuzz.CheckpointEvery = *k
	cfg.Fuzz.Instructions = *insts
	if *translated {
		cfg.Profiles = fuzzfarm.TranslatedProfiles()
	}
	if !*quiet {
		cfg.Progress = func(done, total int64) {
			if done%32 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "fuzzfarm: %d/%d seeds\n", done, total)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	began := time.Now()
	rep, err := fuzzfarm.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzfarm: %v\n", err)
		os.Exit(1)
	}
	if *report != "" {
		if err := bench.WriteJSONFile(*report, rep); err != nil {
			fmt.Fprintf(os.Stderr, "fuzzfarm: %v\n", err)
			os.Exit(1)
		}
	}

	for i := range rep.Findings {
		f := &rep.Findings[i]
		fmt.Printf("DIVERGENCE profile=%s seed=%d cycle=%d pc=%04o key=%s corpus=%s\n",
			f.Profile, f.Seed, f.Cycle, f.PC, f.Key, f.CorpusFile)
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "fuzzfarm: ERROR %s\n", e)
	}
	status := "complete"
	if rep.Interrupted {
		status = "interrupted"
	}
	fmt.Printf("fuzzfarm: %s: %d/%d seeds x %d profiles, %d cycles in %v (%.0f cycles/s), %d divergences, %d errors\n",
		status, rep.SeedsRun, rep.Seeds, len(rep.Profiles), rep.Cycles,
		time.Since(began).Round(time.Millisecond), rep.CyclesPerSec, rep.Divergences, len(rep.Errors))

	if rep.Divergences > 0 || len(rep.Errors) > 0 {
		os.Exit(1)
	}
}

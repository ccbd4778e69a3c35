// Package fuzzfarm is the differential fuzz farm: it shards deterministic
// fuzzdiff seed ranges across a bounded worker pool and aggregates the
// results into one campaign report, turning the fleet's cross-session
// parallelism discipline into overnight interpreter verification.
//
// The farm exists because the repository now carries three execution paths
// that must stay byte-identical forever — the reference interpreter, the
// predecoded hot loop, and the superblock translator — and the cheapest
// way to keep them honest is volume: millions of generated microprograms,
// each a (seed, profile) work unit that either agrees at every snapshot
// checkpoint or bisects to the exact diverging microinstruction
// (internal/fuzzdiff). Work units are embarrassingly parallel (the NOP
// parallel-deployment argument from the related work: many simple
// independent units behind a scheduler), so the farm is a scheduler, not a
// simulator: seed ranges shard contiguously, shards fan out across
// Config.Workers goroutines, and everything a shard computes is a pure
// function of its seeds — the report is byte-identical for any shard count
// or worker count, modulo wall-clock fields.
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
	"time"

	"dorado/internal/core"
	"dorado/internal/fuzzdiff"
)

// Profile names one machine/path configuration a campaign runs every seed
// under. Profiles multiply coverage the way §7's evaluation does: the same
// microprogram generator exercised on bare machines and on device-driven
// ones, against both fast paths.
type Profile struct {
	// Name labels the profile in reports and corpus entries.
	Name string `json:"name"`
	// Translated runs the fast side through the superblock translator.
	Translated bool `json:"translated"`
	// FastIO attaches the display/scanner fast-I/O pair to both machines.
	FastIO bool `json:"fastio"`
	// Display attaches the display alone at full storage bandwidth
	// (fuzzdiff.Config.Display): the devices-session shape, where the
	// device event horizon and the held-run shortcut act.
	Display bool `json:"display,omitempty"`
}

// DefaultProfiles returns the full campaign mix: reference vs predecoded
// and vs translated, on bare machines and on device-driven (fast-I/O)
// ones — the §7 configurations — plus the devices-session shape, whose
// controllers all have event horizons (the fast-I/O profiles' Scanner has
// none, which makes every cycle scan).
func DefaultProfiles() []Profile {
	return []Profile{
		{Name: "bare"},
		{Name: "bare-translated", Translated: true},
		{Name: "fastio", FastIO: true},
		{Name: "fastio-translated", Translated: true, FastIO: true},
		{Name: "devices", Display: true},
	}
}

// TranslatedProfiles returns the translated-only half of the mix, for
// campaigns hunting translator bugs specifically.
func TranslatedProfiles() []Profile {
	return []Profile{
		{Name: "bare-translated", Translated: true},
		{Name: "fastio-translated", Translated: true, FastIO: true},
	}
}

// Config describes one campaign. The zero value is not runnable; Seeds
// must be positive. Everything except Workers and Duration affects the
// divergence set; Workers and Duration affect only how fast (and whether)
// the campaign completes.
type Config struct {
	// StartSeed is the first seed (default 1).
	StartSeed int64
	// Seeds is the number of seeds to run. Required.
	Seeds int64
	// Shards is the number of contiguous seed ranges the campaign is split
	// into — the unit of scheduling and of per-shard stats. Default 8,
	// clamped to Seeds.
	Shards int
	// Workers bounds the goroutines executing shards (default GOMAXPROCS,
	// clamped to Shards). Like the fleet's worker pool, parallelism is a
	// bound, not a structure: any worker may run any shard.
	Workers int
	// Profiles is the machine/path mix every seed runs under (default
	// DefaultProfiles).
	Profiles []Profile
	// Fuzz is the per-seed template: Instructions, Cycles, CheckpointEvery
	// are taken from it (zero values pick the fuzzdiff defaults); Seed,
	// Translated, FastIO, Display, and Tamper are overwritten per work
	// unit.
	Fuzz fuzzdiff.Config
	// Duration, when positive, time-boxes the campaign: seeds not started
	// by the deadline are skipped and the report is marked Interrupted.
	Duration time.Duration
	// CorpusDir, when set, receives one ready-to-paste regression test per
	// distinct minimized divergence (see corpus.go for the format).
	CorpusDir string
	// MinimizeAttempts bounds the program-shrinking ladder (default 8; 0
	// uses the default, negative disables minimization).
	MinimizeAttempts int
	// Tamper, when set, is installed on every work unit's fast path — the
	// fault-injection hook (fuzzdiff.Config.Tamper) the farm's self-test
	// uses to prove a seeded bug is detected, minimized, and reported end
	// to end.
	Tamper func(cycle uint64, fast *core.Machine)
	// Progress, when set, is called after every completed seed with the
	// number of seeds finished and the campaign total. Calls are
	// serialized.
	Progress func(done, total int64)
}

func (c Config) withDefaults() Config {
	if c.StartSeed == 0 {
		c.StartSeed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if int64(c.Shards) > c.Seeds {
		c.Shards = int(c.Seeds)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if len(c.Profiles) == 0 {
		c.Profiles = DefaultProfiles()
	}
	if c.MinimizeAttempts == 0 {
		c.MinimizeAttempts = 8
	}
	return c
}

// Finding is one minimized divergence in the campaign report.
type Finding struct {
	// Profile is the machine/path configuration that diverged.
	Profile string `json:"profile"`
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

// ShardStats is one shard's accounting. Elapsed fields are wall-clock and
// excluded from the determinism contract.
type ShardStats struct {
	Shard     int   `json:"shard"`
	FirstSeed int64 `json:"first_seed"`
	// SeedsTotal is the shard's range size; SeedsRun how many actually ran
	// (fewer when the campaign was interrupted).
	SeedsTotal  int64  `json:"seeds_total"`
	SeedsRun    int64  `json:"seeds_run"`
	Cycles      uint64 `json:"cycles"`
	Divergences int    `json:"divergences"`
	// ElapsedMS is wall-clock shard time (timing; zero it when comparing
	// reports).
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Report is the campaign result. For a completed campaign every field
// except the timing ones (ElapsedMS, CyclesPerSec, ShardStats[].ElapsedMS)
// and Workers is a pure function of (StartSeed, Seeds, Shards, Profiles,
// Fuzz, Tamper) — any worker count produces the same report.
type Report struct {
	StartSeed int64     `json:"start_seed"`
	Seeds     int64     `json:"seeds"`
	Shards    int       `json:"shards"`
	Workers   int       `json:"workers"`
	Profiles  []Profile `json:"profiles"`

	// SeedsRun counts completed seeds (× all profiles each); Cycles sums
	// simulated cycles across every work unit's scan.
	SeedsRun    int64  `json:"seeds_run"`
	Cycles      uint64 `json:"cycles"`
	Divergences int    `json:"divergences"`
	// Findings holds the minimized divergences, sorted by (profile, seed).
	Findings []Finding `json:"findings,omitempty"`
	// Errors holds harness errors (unassemblable seeds, snapshot restore
	// failures), sorted; they fail a CI campaign like divergences do.
	Errors []string `json:"errors,omitempty"`
	// ShardStats is the per-shard breakdown (its shape depends on the
	// shard count; strip it too when comparing reports across counts).
	ShardStats []ShardStats `json:"shard_stats"`
	// Interrupted reports that the context was canceled (or Duration
	// expired) before every seed ran; the report covers the completed part.
	Interrupted bool `json:"interrupted"`

	// ElapsedMS and CyclesPerSec are wall-clock (timing fields).
	ElapsedMS    int64   `json:"elapsed_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// StripTiming zeroes every wall-clock-dependent field, leaving exactly the
// deterministic part of the report — what the shard-determinism tests (and
// any byte-level report diffing) compare.
func (r *Report) StripTiming() {
	r.ElapsedMS = 0
	r.CyclesPerSec = 0
	r.Workers = 0
	for i := range r.ShardStats {
		r.ShardStats[i].ElapsedMS = 0
	}
}

// shardRange returns shard i's seed range [first, first+count) for a
// campaign of total seeds starting at start: contiguous ranges, remainder
// spread one seed at a time over the leading shards.
func shardRange(start, total int64, shards, i int) (first, count int64) {
	per, rem := total/int64(shards), total%int64(shards)
	first = start + int64(i)*per + min(int64(i), rem)
	count = per
	if int64(i) < rem {
		count++
	}
	return first, count
}

// Run executes the campaign: shards fan out across the worker pool, every
// seed runs every profile, divergences are minimized, and (when CorpusDir
// is set) distinct findings become corpus entries. Cancel ctx — or set
// Config.Duration — for a graceful stop: in-flight seeds finish, the rest
// are skipped, and the partial report comes back with Interrupted set.
// The error is non-nil only for campaign-level failures (an unusable
// corpus directory); per-seed harness errors are collected in
// Report.Errors instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("fuzzfarm: Config.Seeds must be positive")
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	start := time.Now()
	shards := make([]*shardResult, cfg.Shards)
	work := make(chan int)
	var done int64
	var progressMu sync.Mutex
	noteSeed := func() {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		cfg.Progress(done, cfg.Seeds)
		progressMu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				shards[i] = runShard(ctx, cfg, i, noteSeed)
			}
		}()
	}
	for i := 0; i < cfg.Shards; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	rep := &Report{
		StartSeed: cfg.StartSeed,
		Seeds:     cfg.Seeds,
		Shards:    cfg.Shards,
		Workers:   cfg.Workers,
		Profiles:  cfg.Profiles,
	}
	for _, sh := range shards {
		rep.SeedsRun += sh.stats.SeedsRun
		rep.Cycles += sh.stats.Cycles
		rep.Findings = append(rep.Findings, sh.findings...)
		rep.Errors = append(rep.Errors, sh.errors...)
		rep.ShardStats = append(rep.ShardStats, sh.stats)
		if sh.stats.SeedsRun < sh.stats.SeedsTotal {
			rep.Interrupted = true
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.Profile != b.Profile {
			return a.Profile < b.Profile
		}
		return a.Seed < b.Seed
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

// shardResult is one shard's raw output before aggregation.
type shardResult struct {
	stats    ShardStats
	findings []Finding
	errors   []string
}

// runShard runs one contiguous seed range × every profile. It checks the
// context between work units only — a started unit always finishes, so a
// cancellation never truncates a divergence mid-bisection.
func runShard(ctx context.Context, cfg Config, shard int, noteSeed func()) *shardResult {
	first, count := shardRange(cfg.StartSeed, cfg.Seeds, cfg.Shards, shard)
	res := &shardResult{stats: ShardStats{Shard: shard, FirstSeed: first, SeedsTotal: count}}
	begin := time.Now()
	defer func() { res.stats.ElapsedMS = time.Since(begin).Milliseconds() }()

	for seed := first; seed < first+count; seed++ {
		if ctx.Err() != nil {
			return res
		}
		for _, p := range cfg.Profiles {
			fcfg := cfg.Fuzz
			fcfg.Seed = seed
			fcfg.Translated = p.Translated
			fcfg.FastIO = p.FastIO
			fcfg.Display = p.Display
			fcfg.Tamper = cfg.Tamper
			r, err := fuzzdiff.RunResult(fcfg)
			res.stats.Cycles += r.Cycles
			if err != nil {
				res.errors = append(res.errors, fmt.Sprintf("profile %s seed %d: %v", p.Name, seed, err))
				continue
			}
			if r.Divergence == nil {
				continue
			}
			res.stats.Divergences++
			mcfg, md := minimize(fcfg, r.Divergence, cfg.MinimizeAttempts)
			res.findings = append(res.findings, Finding{
				Profile:         p.Name,
				Seed:            seed,
				Cycle:           r.Divergence.Cycle,
				Task:            r.Divergence.Task,
				PC:              uint16(r.Divergence.PC),
				Word:            fmt.Sprintf("%+v", r.Divergence.Word),
				Raw:             r.Divergence.Word.Encode(),
				Detail:          r.Divergence.Detail,
				MinInstructions: mcfg.Instructions,
				MinCycles:       mcfg.Cycles,
				Repro:           md.Repro,
			})
		}
		res.stats.SeedsRun++
		noteSeed()
	}
	return res
}

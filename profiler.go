package dorado

import (
	"errors"
	"io"

	"dorado/internal/core"
	"dorado/internal/obs/prof"
)

// Microarchitectural profiler re-exports. Attach a Profiler with
// WithProfiler; it charges every cycle to the microaddress occupying the
// processor and records how each superblock execution ends (the abort
// accounting behind the translated-path speedups). Profiler-off systems pay
// one nil check per cycle; see internal/obs/prof for the model and export
// formats.
type (
	// Profiler is the exact-counter attribution state (internal/core).
	Profiler = core.Profiler
	// Profile is the portable symbolized profile document
	// (internal/obs/prof): JSON-marshalable, mergeable, exportable as
	// pprof or Chrome-trace spans.
	Profile = prof.Profile
	// ExitReason classifies how a superblock execution ended.
	ExitReason = core.ExitReason
)

// NewProfiler builds an empty profiler for WithProfiler.
func NewProfiler() *Profiler { return core.NewProfiler() }

// NumExitReasons sizes per-reason counter arrays (ExitReason values are
// 0..NumExitReasons-1).
const NumExitReasons = core.NumExitReasons

// ErrNoProfiler reports a profile request on a System built without
// WithProfiler.
var ErrNoProfiler = errors.New("dorado: no profiler attached (use WithProfiler)")

// WithProfiler attaches a microarchitectural profiler; pass NewProfiler().
// Read results with System.Profile / WriteProfilePprof while the machine is
// paused.
func WithProfiler(p *Profiler) Option {
	return func(s *settings) { s.prof = p }
}

// Profile builds the symbolized profile from the attached profiler, naming
// microaddresses by the installed emulator's masm symbols (bare "page.word"
// addresses on a System without one). Call while the machine is paused.
func (s *System) Profile() (*Profile, error) {
	if s.Profiler == nil {
		return nil, ErrNoProfiler
	}
	var symbols *prof.SymbolTable
	if s.Emulator != nil && s.Emulator.Micro != nil {
		symbols = prof.NewSymbolTable(s.Emulator.Micro.Symbols)
	}
	return prof.Build(s.Profiler.Snapshot(), symbols), nil
}

// WriteProfilePprof writes the current profile as gzipped pprof protobuf —
// the format `go tool pprof` opens directly.
func (s *System) WriteProfilePprof(w io.Writer) error {
	p, err := s.Profile()
	if err != nil {
		return err
	}
	return prof.WritePprof(w, p)
}

// WriteProfileChromeTrace renders the profiler's recent superblock spans as
// Chrome trace_event JSON (chrome://tracing, Perfetto).
func (s *System) WriteProfileChromeTrace(w io.Writer) error {
	p, err := s.Profile()
	if err != nil {
		return err
	}
	return prof.WriteChromeTrace(w, p)
}

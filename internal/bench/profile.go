package bench

import (
	"fmt"

	"dorado/internal/bitblt"
	"dorado/internal/core"
	"dorado/internal/emulator"
	"dorado/internal/microcode"
	"dorado/internal/obs/prof"
)

// This file runs the microarchitectural profiler over the §7 host
// workloads: each machine runs with the superblock translator and a
// core.Profiler attached, and the per-workload symbolized profiles land in
// a prof.BenchReport (the simbench -profile artifact). The abort-reason
// breakdown is the point: it explains *why* a workload does or does not
// profit from translation — the emulator's superblocks die young on IFU
// dispatch, and the disk and display routines' blocks are task-0-only, so
// their I/O tasks fail the entry guard — where the throughput table only
// shows that it doesn't.

// workloadSymbols returns the masm symbol table of a host workload's
// microcode, for symbolizing its profile. Assembly is deterministic, so
// rebuilding the program here yields the same placement the measured
// machine ran.
func workloadSymbols(id string) (map[string]microcode.Addr, error) {
	switch id {
	case "emulator":
		return emulator.Mesa().Micro.Symbols, nil
	case "disk":
		p, err := diskProgram()
		if err != nil {
			return nil, err
		}
		return p.Symbols, nil
	case "fastio":
		p, err := fastioProgram()
		if err != nil {
			return nil, err
		}
		return p.Symbols, nil
	case "bitblt":
		ps, err := bitblt.Build()
		if err != nil {
			return nil, err
		}
		return ps.Micro.Symbols, nil
	default:
		return nil, fmt.Errorf("bench: no symbols for workload %q", id)
	}
}

// RunProfileReport profiles every §7 host workload for budget cycles on
// the translated path (superblocks enabled, profiler attached) and returns
// the per-workload symbolized profiles.
func RunProfileReport(budget uint64) (*prof.BenchReport, error) {
	rep := &prof.BenchReport{Cycles: budget}
	for _, w := range HostWorkloads() {
		run, m, err := w.Build(core.Config{Translation: core.Translation{Enable: true}})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.ID, err)
		}
		p := core.NewProfiler()
		m.SetProfiler(p)
		if _, err := run(budget); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.ID, err)
		}
		syms, err := workloadSymbols(w.ID)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, prof.WorkloadProfile{
			ID: w.ID, Name: w.Name,
			Profile: prof.Build(p.Snapshot(), prof.NewSymbolTable(syms)),
		})
	}
	return rep, nil
}

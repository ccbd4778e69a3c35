package fleet

import (
	"context"
	"errors"
	"fmt"

	"dorado"
	"dorado/internal/obs/prof"
)

// Profile operations: per-session symbolized profiles and the fleet-wide
// merged view behind GET /v1/sessions/{id}/profile and GET /v1/profile.

// ProfileResult is one session's profile read: the symbolized Profile plus
// enough session context to interpret it.
type ProfileResult struct {
	ID    string `json:"id"`
	Cycle uint64 `json:"cycle"`
	// Revived reports that this read revived a parked session: the
	// profiler was recreated at revival, so the profile covers only the
	// span since then.
	Revived bool          `json:"revived,omitempty"`
	Profile *prof.Profile `json:"profile"`
	// Translation is the superblock translator's counters, for reading the
	// profile's abort accounting against the translator's coverage.
	Translation dorado.TranslationStats `json:"translation"`
}

// symbolsFor picks the session's symbol table: the built-in emulator
// program's symbols when one is installed, else whatever LoadMicrocode
// stashed (nil on a bare session — profiles then name bare addresses).
func (s *Session) symbolsFor(sys *dorado.System) *prof.SymbolTable {
	if sys.Emulator != nil && sys.Emulator.Micro != nil {
		return prof.NewSymbolTable(sys.Emulator.Micro.Symbols)
	}
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.symbols
}

// Profile reads one session's microarchitectural profile. Requires
// Spec.Profile (ErrNoProfiler otherwise). Like the other reads it is a
// serialized operation — safe while other clients run the machine — and it
// revives a parked session.
func (m *Manager) Profile(ctx context.Context, id string) (ProfileResult, error) {
	s, _ := m.lookup(id)
	res, err := m.submit(ctx, id, opProfile, func(sys *system) (any, error) {
		if sys.Profiler == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoProfiler, id)
		}
		return ProfileResult{
			ID:          id,
			Cycle:       sys.Machine.Cycle(),
			Profile:     prof.Build(sys.Profiler.Snapshot(), s.symbolsFor(sys)),
			Translation: sys.Machine.TranslationStats(),
		}, nil
	})
	if err != nil {
		return ProfileResult{}, err
	}
	r := res.value.(ProfileResult)
	r.Revived = res.revived
	return r, nil
}

// FleetProfileResult is the merged fleet-wide profile: one Profile summing
// every profiled session, plus the ids it covers, in creation order.
type FleetProfileResult struct {
	Sessions []string      `json:"sessions"`
	Profile  *prof.Profile `json:"profile"`
}

// FleetProfile merges every profiled session's profile into one. Sessions
// are read serially in creation order — each read is an ordinary
// serialized operation on its session — and merged in that same order, so
// identical fleets produce identical merged profiles. Sessions without a
// profiler are skipped (a fleet with none yields an empty profile);
// sessions destroyed mid-walk are skipped too. Note the read revives
// parked profiled sessions.
func (m *Manager) FleetProfile(ctx context.Context) (FleetProfileResult, error) {
	list := m.table()
	res := FleetProfileResult{Sessions: []string{}}
	profiles := make([]*prof.Profile, 0, len(list))
	for _, s := range list {
		if !s.spec.Profile { // immutable after Create; safe to read
			continue
		}
		r, err := m.Profile(ctx, s.id)
		switch {
		case err == nil:
			res.Sessions = append(res.Sessions, s.id)
			profiles = append(profiles, r.Profile)
		case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoProfiler):
			// Destroyed mid-walk, or raced a respec; skip.
		default:
			return FleetProfileResult{}, err
		}
	}
	res.Profile = prof.Merge(profiles...)
	return res, nil
}

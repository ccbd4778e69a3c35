package store

// This file is the reclamation half of the store's lifecycle. Without it
// the store only grows: Destroy keeps snapshots as fork fodder, and every
// re-park of a session strands the previous snapshot. Sweep walks the
// recipes, then the sections, and deletes what nothing references any
// more — with two hard safety guarantees:
//
//  1. Manifest-reachable data is never collected. A snapshot named by any
//     manifest entry keeps its recipe, its spec sidecar and every section
//     the recipe names.
//  2. In-flight readers are never raced. Pin registers a hash as
//     reachable before its snapshot is read (fork-from-hash) or before it
//     is written-but-not-yet-manifested (park); Sweep holds the store lock
//     for its whole pass, so a pin either lands before the pass (the data
//     is kept) or after it (the data was either already gone — the reader
//     sees a clean ErrNoBlob — or not yet written and thus not a
//     candidate).
//
// Age is the third brake: only items older than GCPolicy.MaxAge are
// candidates, so a freshly crashed park (snapshot durable, manifest
// rename lost) has a grace window in which a restarted operator can still
// fork it before it is declared garbage.

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// GCPolicy parameterizes one Sweep pass.
type GCPolicy struct {
	// MaxAge is the minimum age (by file modification time) an
	// unreferenced item must reach before Sweep reclaims it. Zero (or
	// negative) reclaims every unreferenced item immediately.
	MaxAge time.Duration
}

// SweepResult reports what one Sweep pass did.
type SweepResult struct {
	// Scanned is the number of payload files examined (recipes and
	// sections).
	Scanned int `json:"scanned"`
	// ReclaimedRecipes and ReclaimedSections count the deleted files by
	// kind (spec sidecars ride along with their recipe and are not counted
	// separately).
	ReclaimedRecipes  int `json:"reclaimed_recipes"`
	ReclaimedSections int `json:"reclaimed_sections"`
	// ReclaimedBytes is the payload byte total deleted, sidecars included.
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// Kept is the number of payload files retained, whether reachable or
	// merely younger than the policy's MaxAge.
	Kept int `json:"kept"`
}

// Pin marks hash as reachable for the duration of an out-of-manifest use
// — a fork reading the snapshot, a park that has written the snapshot but
// not yet its manifest entry — and returns the release function. Pins nest
// (refcounted) and block while a Sweep pass runs, which is exactly the
// ordering the safety argument needs.
func (s *Store) Pin(hash string) func() {
	s.mu.Lock()
	s.pins[hash]++
	s.mu.Unlock()
	var once bool
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if once {
			return
		}
		once = true
		if s.pins[hash]--; s.pins[hash] <= 0 {
			delete(s.pins, hash)
		}
	}
}

// Sweep reclaims every payload file unreachable from the manifest (and
// unpinned) whose modification time is older than policy.MaxAge. It holds
// the store lock for the whole pass — manifest updates and new pins wait
// a few milliseconds — which is what makes the no-lost-snapshot guarantee
// a lock-ordering fact instead of a best-effort race.
func (s *Store) Sweep(policy GCPolicy) (SweepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	cutoff := time.Now()
	if policy.MaxAge > 0 {
		cutoff = cutoff.Add(-policy.MaxAge)
	}

	// Roots: every manifest hash plus every pinned hash.
	roots := make(map[string]bool, len(s.m.Sessions)+len(s.pins))
	for _, e := range s.m.Sessions {
		roots[e.Hash] = true
	}
	for h := range s.pins {
		roots[h] = true
	}

	var res SweepResult
	// Pass 1: recipes, of either version. A recipe survives if its
	// snapshot hash is a root or it is young; every surviving recipe's
	// shared sections become reachable, so a kept-because-young recipe also
	// anchors its sections. Inline sections go with their recipe. A
	// reclaimed recipe takes its spec sidecar with it.
	liveSections := map[string]bool{}
	if err := s.sweepDir(filepath.Join(s.dir, "recipes"), cutoff, &res, func(name string, young bool) (keep bool) {
		if roots[name] || young {
			if r, err := s.readRecipe(name); err == nil {
				for _, sec := range r.sections {
					if sec.shared {
						liveSections[hex.EncodeToString(sec.sum[:])] = true
					}
				}
			} else if roots[name] {
				// A reachable recipe that fails to parse is a corruption
				// the sweep must not compound: keep everything under the
				// broadest interpretation by aborting the section pass.
				liveSections[allSectionsLive] = true
			}
			return true
		}
		res.ReclaimedRecipes++
		s.removeSidecar(name, &res)
		return false
	}); err != nil {
		return res, err
	}

	// Pass 2: sections referenced by no surviving recipe.
	if liveSections[allSectionsLive] {
		return res, fmt.Errorf("store: sweep: unreadable reachable recipe; sections not swept")
	}
	if err := s.sweepDir(filepath.Join(s.dir, "sections"), cutoff, &res, func(name string, young bool) (keep bool) {
		if liveSections[name] || young {
			return true
		}
		res.ReclaimedSections++
		return false
	}); err != nil {
		return res, err
	}

	s.gc.runs.Add(1)
	s.gc.bytes.Add(uint64(res.ReclaimedBytes))
	return res, nil
}

// allSectionsLive is the sentinel key sweepDir's recipe pass uses to
// signal "a reachable recipe could not be read; do not sweep sections".
const allSectionsLive = "\x00all"

// sweepDir applies decide to every file in dir, deleting the ones it
// rejects and accounting both outcomes into res. decide receives the file
// name and whether the file is younger than the cutoff.
func (s *Store) sweepDir(dir string, cutoff time.Time, res *SweepResult, decide func(name string, young bool) bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: sweep: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		// WriteFileAtomic temp files are another writer's in-flight rename
		// source; deleting one would fail that write. They are transient by
		// construction (Open removes those a killed write left), so they
		// are simply not sweep candidates.
		if isTemp(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // vanished mid-walk; nothing to reclaim
		}
		res.Scanned++
		if decide(e.Name(), info.ModTime().After(cutoff)) {
			res.Kept++
			continue
		}
		path := filepath.Join(dir, e.Name())
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("store: sweep: %w", err)
		}
		res.ReclaimedBytes += info.Size()
	}
	return nil
}

// removeSidecar deletes the .json spec sidecar riding with a reclaimed
// recipe, if one exists, and accounts its bytes.
func (s *Store) removeSidecar(hash string, res *SweepResult) {
	path := s.metaPath(hash)
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	if os.Remove(path) == nil {
		res.ReclaimedBytes += info.Size()
	}
}

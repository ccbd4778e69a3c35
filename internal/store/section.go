package store

// This file is the structural-dedupe half of the store: PutSnapshot
// content-addresses the snapshot's *sections* (the internal/state format
// is section-framed by design) and records a small recipe that names
// them. Re-parking a mostly-unchanged session then writes only the
// sections that changed — typically the processor core and a couple of
// device FIFOs — while the big memory images dedupe against the previous
// park.
//
// The public content address is the SHA-256 of the complete snapshot
// document, not of any file: fork-from-hash, GET /v1/snapshots/{hash} and
// manifest entries all name the recipe by it. Get reassembles — header,
// then each section reframed in recipe order — and verifies the result
// hashes to its name, which subsumes verifying every individual section.
//
// The recipe document carries its own format version. A recipe version
// this build does not understand fails Get loudly (ErrNoBlob would lie:
// the data exists, this build just cannot read it), exactly the
// strictness discipline of internal/state.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dorado/internal/state"
)

// recipeVersion is the recipe schema generation. Bump it on any change to
// the recipe document layout; readers accept exactly the versions they
// know how to reassemble.
const recipeVersion = 1

// recipe is the on-disk reassembly instruction for one sectioned
// snapshot: the verbatim document header plus the ordered section list.
type recipe struct {
	Version int `json:"version"`
	// Header is the snapshot's pre-section prefix (magic + format
	// version), base64 in JSON.
	Header []byte `json:"header"`
	// Sections name the section blobs in document order.
	Sections []recipeSection `json:"sections"`
}

// recipeSection is one section reference in a recipe.
type recipeSection struct {
	// Tag is the four-byte section tag.
	Tag string `json:"tag"`
	// Hash is the SHA-256 of the section body, the file name under
	// sections/.
	Hash string `json:"hash"`
}

func (s *Store) sectionPath(hash string) string { return filepath.Join(s.dir, "sections", hash) }

func (s *Store) recipePath(hash string) string { return filepath.Join(s.dir, "recipes", hash) }

// PutStats reports what one PutSnapshot actually wrote — the dedupe
// accounting behind the dorado_store_sections_deduped metrics family and
// the "re-parking stores less" acceptance check.
type PutStats struct {
	// Hash is the snapshot's content address (SHA-256 of the full
	// document).
	Hash string
	// Sections is the number of sections in the document.
	Sections int
	// DedupedSections counts sections that already existed in the store
	// and were not rewritten.
	DedupedSections int
	// NewBytes is the number of payload bytes actually written (new
	// sections plus the recipe).
	NewBytes int64
	// DedupedBytes is the number of section bytes shared with sections
	// already in the store.
	DedupedBytes int64
}

// PutSnapshot stores a machine snapshot with section-level dedupe: each
// section body becomes (or joins) a content-addressed file under
// sections/, and a recipe under recipes/<full-hash> records how to
// reassemble the document. Bytes that do not parse as a snapshot document
// are refused. It is idempotent: a snapshot the store already holds
// writes nothing.
func (s *Store) PutSnapshot(data []byte) (PutStats, error) {
	return s.PutSnapshotHashed(Hash(data), data)
}

// PutSnapshotHashed is PutSnapshot for a caller that already holds the
// snapshot's content address, hash == Hash(data) — a park computes it to
// pin the snapshot before writing, and passing it on saves hashing the
// whole document a second time. The store files the recipe under hash
// as given; Get re-verifies every reassembly against its name, so a
// wrong hash surfaces as corruption on read, never as a wrong snapshot.
func (s *Store) PutSnapshotHashed(hash string, data []byte) (PutStats, error) {
	if !validHash(hash) {
		return PutStats{}, fmt.Errorf("store: malformed snapshot hash %q", hash)
	}
	doc, err := state.Split(data)
	if err != nil {
		return PutStats{}, fmt.Errorf("store: not a snapshot document: %w", err)
	}
	// The whole write holds the store lock, serializing against Sweep: the
	// dedupe decision ("this section already exists, skip it") and the
	// recipe write that depends on it must see a frozen reclamation state,
	// or a concurrent sweep could delete a section between the two.
	s.mu.Lock()
	defer s.mu.Unlock()
	st := PutStats{Hash: hash, Sections: len(doc.Sections)}
	if s.Has(hash) {
		// Already stored: every section is shared and nothing is written.
		st.DedupedSections = len(doc.Sections)
		for _, sec := range doc.Sections {
			st.DedupedBytes += int64(len(sec.Body))
		}
		s.dedupe.sections.Add(uint64(st.DedupedSections))
		s.dedupe.bytes.Add(uint64(st.DedupedBytes))
		return st, nil
	}
	r := recipe{Version: recipeVersion, Header: doc.Header}
	for _, sec := range doc.Sections {
		sh := Hash(sec.Body)
		r.Sections = append(r.Sections, recipeSection{Tag: sec.Tag, Hash: sh})
		if _, err := os.Stat(s.sectionPath(sh)); err == nil {
			st.DedupedSections++
			st.DedupedBytes += int64(len(sec.Body))
			continue
		}
		if err := WriteFileAtomic(s.sectionPath(sh), sec.Body); err != nil {
			return PutStats{}, fmt.Errorf("store: writing section: %w", err)
		}
		st.NewBytes += int64(len(sec.Body))
	}
	enc, err := json.Marshal(r)
	if err != nil {
		return PutStats{}, fmt.Errorf("store: encoding recipe: %w", err)
	}
	// Recipe last: a crash before this rename leaves only unreferenced
	// sections (GC fodder), never a recipe naming missing sections.
	if err := WriteFileAtomic(s.recipePath(hash), enc); err != nil {
		return PutStats{}, fmt.Errorf("store: writing recipe: %w", err)
	}
	st.NewBytes += int64(len(enc))
	s.dedupe.sections.Add(uint64(st.DedupedSections))
	s.dedupe.bytes.Add(uint64(st.DedupedBytes))
	return st, nil
}

// readRecipe loads and validates the recipe for hash. A recipe from a
// future format generation fails loudly rather than reassembling garbage.
func (s *Store) readRecipe(hash string) (*recipe, error) {
	data, err := os.ReadFile(s.recipePath(hash))
	if err != nil {
		return nil, err
	}
	var r recipe
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("store: recipe %s: %w", hash, err)
	}
	if r.Version != recipeVersion {
		return nil, fmt.Errorf("store: recipe %s version %d, this build reads version %d", hash, r.Version, recipeVersion)
	}
	return &r, nil
}

// assemble reconstructs a sectioned snapshot from its recipe and verifies
// the result hashes to its name.
func (s *Store) assemble(hash string) ([]byte, error) {
	r, err := s.readRecipe(hash)
	if err != nil {
		return nil, err
	}
	doc := state.Doc{Header: r.Header}
	for _, sec := range r.Sections {
		if !validHash(sec.Hash) {
			return nil, fmt.Errorf("store: recipe %s: malformed section hash %q", hash, sec.Hash)
		}
		body, err := os.ReadFile(s.sectionPath(sec.Hash))
		if err != nil {
			return nil, fmt.Errorf("store: recipe %s section %s: %w", hash, sec.Tag, err)
		}
		doc.Sections = append(doc.Sections, state.RawSection{Tag: sec.Tag, Body: body})
	}
	data := doc.Join()
	if got := Hash(data); got != hash {
		return nil, fmt.Errorf("store: snapshot %s corrupt (reassembly hashes to %s)", hash, got)
	}
	return data, nil
}

// Stats is the operator-facing inventory of a store — what GET /v1/store
// serves and the dorado_store_* metric families export. Counts and bytes
// come from a directory walk at call time (the store is small by
// construction: hundreds of files, not millions); the dedupe and GC
// counters are process-lifetime atomics.
type Stats struct {
	// Dir is the store's root directory.
	Dir string `json:"dir"`
	// Sessions is the number of manifest entries (parked or adopted
	// sessions the manifest still references).
	Sessions int `json:"sessions"`
	// Recipes counts stored snapshots: one recipe each under recipes/.
	Recipes int `json:"recipes"`
	// Sections counts section files under sections/.
	Sections int `json:"sections"`
	// Bytes is the payload total: sections + recipes (spec sidecars
	// excluded).
	Bytes int64 `json:"bytes"`
	// SectionsDeduped counts sections PutSnapshot skipped because an
	// identical section already existed (process lifetime).
	SectionsDeduped uint64 `json:"sections_deduped"`
	// DedupedBytes is the byte total of those skipped sections.
	DedupedBytes uint64 `json:"deduped_bytes"`
	// GCRuns counts completed Sweep passes (process lifetime).
	GCRuns uint64 `json:"gc_runs"`
	// GCReclaimedBytes is the byte total Sweep has deleted.
	GCReclaimedBytes uint64 `json:"gc_reclaimed_bytes"`
}

// dirStats totals one directory's files.
func dirStats(dir string) (n int, bytes int64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		n++
		bytes += info.Size()
	}
	return n, bytes
}

// Stats inventories the store. Safe for concurrent use; it reads the
// manifest under the store lock and walks the payload directories without
// one (payload files are immutable; a file appearing or vanishing
// mid-walk skews a count by one, never corrupts it).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	sessions := len(s.m.Sessions)
	s.mu.Unlock()
	st := Stats{
		Dir:              s.dir,
		Sessions:         sessions,
		SectionsDeduped:  s.dedupe.sections.Load(),
		DedupedBytes:     s.dedupe.bytes.Load(),
		GCRuns:           s.gc.runs.Load(),
		GCReclaimedBytes: s.gc.bytes.Load(),
	}
	var rb, sb int64
	st.Recipes, rb = dirStats(filepath.Join(s.dir, "recipes"))
	st.Sections, sb = dirStats(filepath.Join(s.dir, "sections"))
	st.Bytes = rb + sb
	return st
}

package store

// This file is the structural-dedupe half of the store. PutSnapshot
// splits a snapshot into its sections (the internal/state format is
// section-framed by design) and writes one binary recipe for it. The
// recipe carries every section shorter than sharedMin inline and names
// each larger one by the SHA-256 of its body: a file under sections/
// that every snapshot holding the same body shares. Of a booted Mesa
// session's twelve sections only two reach sharedMin, the 32 KiB
// microstore (UIMS), which dedupes against earlier parks, and the storage
// pages (MDAT); the processor, cache and IFU sections change at every
// park but take a few KiB together, so they ride in the recipe instead of
// costing a park a file write and a revive a file read each.
//
// The public content address is the SHA-256 of the complete snapshot
// document, not of any file: fork-from-hash, GET /v1/snapshots/{hash} and
// manifest entries all name the recipe by it. Get reassembles — header,
// then each section reframed in recipe order — and verifies the result
// hashes to its name, which covers the inline bodies and every shared
// section at once.
//
// The recipe carries its own format version. Version 2 is the binary
// recipe below. Version 1, a JSON recipe that filed every section under
// sections/, is still read by Get, Has and Sweep, so a store an older
// build wrote adopts and revives, but it is never written. A version this
// build does not know fails Get loudly (ErrNoBlob would lie: the data
// exists, this build just cannot read it), the strictness discipline of
// internal/state.
//
// A version-2 recipe, every integer little-endian:
//
//	"DRCP"   magic
//	uint16   version (2)
//	uint32   header length h, then h bytes: the document header, verbatim
//	uint32   section count, then per section in document order:
//	  4 bytes  tag
//	  1 byte   kind: recipeInline, then a uint32 body length n and n
//	           bytes of body; or recipeShared, then the body's 32-byte
//	           SHA-256, whose hex names its file under sections/

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dorado/internal/state"
)

// sharedMin is the size from which a section body is filed on its own
// under sections/ and shared by every recipe that holds it; a shorter
// body rides inline in its recipe. 4,096 bytes is one block on ext4, xfs
// and tmpfs, so a smaller file saves no disk space by being shared, yet
// it still costs a park a write and a revive a read.
const sharedMin = 4096

const (
	recipeMagic   = "DRCP"
	recipeVersion = 2 // the version PutSnapshot writes; Get also reads 1

	// recipeInline and recipeShared are a section's kind byte.
	recipeInline = 0
	recipeShared = 1

	// recipeMinSection is the fewest bytes a section takes in a recipe:
	// tag, kind and an empty inline body's length.
	recipeMinSection = 4 + 1 + 4
)

// recipe is the reassembly instruction for one snapshot: the verbatim
// document header and its sections in document order.
type recipe struct {
	header   []byte
	sections []recipeSection
}

// recipeSection is one section of a recipe. An inline section holds its
// body; a shared section is named by sum, and a decoded one has no body.
type recipeSection struct {
	tag    [4]byte
	shared bool
	sum    [sha256.Size]byte
	body   []byte
}

// encode renders r as a version-2 recipe.
func (r *recipe) encode() []byte {
	n := len(recipeMagic) + 2 + 4 + len(r.header) + 4
	for _, sec := range r.sections {
		if sec.shared {
			n += 4 + 1 + sha256.Size
		} else {
			n += recipeMinSection + len(sec.body)
		}
	}
	le := binary.LittleEndian
	out := make([]byte, 0, n)
	out = append(out, recipeMagic...)
	out = le.AppendUint16(out, recipeVersion)
	out = le.AppendUint32(out, uint32(len(r.header)))
	out = append(out, r.header...)
	out = le.AppendUint32(out, uint32(len(r.sections)))
	for _, sec := range r.sections {
		out = append(out, sec.tag[:]...)
		if sec.shared {
			out = append(out, recipeShared)
			out = append(out, sec.sum[:]...)
			continue
		}
		out = append(out, recipeInline)
		out = le.AppendUint32(out, uint32(len(sec.body)))
		out = append(out, sec.body...)
	}
	return out
}

// decodeRecipe parses a recipe of either version; inline bodies alias
// data. It refuses, and never panics on, a truncated input, trailing
// bytes, a length past the end, an unknown kind or an unknown version,
// and it allocates for a count only once the bytes left can hold it.
func decodeRecipe(data []byte) (recipe, error) {
	if !bytes.HasPrefix(data, []byte(recipeMagic)) {
		return decodeRecipeV1(data)
	}
	rd := recipeReader{rest: data[len(recipeMagic):], ok: true}
	if v := rd.take(2); v != nil {
		if v := binary.LittleEndian.Uint16(v); v != recipeVersion {
			return recipe{}, fmt.Errorf("recipe version %d, this build reads version %d", v, recipeVersion)
		}
	}
	r := recipe{header: rd.take(uint64(rd.u32()))}
	n := rd.u32()
	if !rd.ok {
		return recipe{}, errors.New("recipe truncated before its sections")
	}
	if uint64(n) > uint64(len(rd.rest))/recipeMinSection {
		return recipe{}, fmt.Errorf("recipe claims %d sections, %d bytes remain", n, len(rd.rest))
	}
	r.sections = make([]recipeSection, n)
	for i := range r.sections {
		sec := &r.sections[i]
		copy(sec.tag[:], rd.take(4))
		switch kind := rd.take(1); {
		case kind == nil:
		case kind[0] == recipeInline:
			sec.body = rd.take(uint64(rd.u32()))
		case kind[0] == recipeShared:
			sec.shared = true
			copy(sec.sum[:], rd.take(sha256.Size))
		default:
			return recipe{}, fmt.Errorf("recipe section %d has kind %d", i, kind[0])
		}
	}
	switch {
	case !rd.ok:
		return recipe{}, errors.New("recipe truncated: a length runs past the end")
	case len(rd.rest) > 0:
		return recipe{}, fmt.Errorf("recipe has %d trailing bytes", len(rd.rest))
	}
	return r, nil
}

// recipeReader takes fields off the front of a binary recipe. A field
// that runs past the end clears ok, and every later take returns nil.
type recipeReader struct {
	rest []byte
	ok   bool
}

func (rd *recipeReader) take(n uint64) []byte {
	if !rd.ok || n > uint64(len(rd.rest)) {
		rd.ok = false
		return nil
	}
	b := rd.rest[:n:n]
	rd.rest = rd.rest[n:]
	return b
}

func (rd *recipeReader) u32() uint32 {
	if b := rd.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// decodeRecipeV1 parses a version-1 recipe: a JSON document holding the
// header (base64) and, per section, its tag and the hex SHA-256 of a file
// under sections/ — every section was shared, whatever its size.
func decodeRecipeV1(data []byte) (recipe, error) {
	var v struct {
		Version  int    `json:"version"`
		Header   []byte `json:"header"`
		Sections []struct {
			Tag  string `json:"tag"`
			Hash string `json:"hash"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return recipe{}, fmt.Errorf("recipe: %w", err)
	}
	if v.Version != 1 {
		return recipe{}, fmt.Errorf("JSON recipe version %d, this build reads JSON version 1", v.Version)
	}
	r := recipe{header: v.Header, sections: make([]recipeSection, len(v.Sections))}
	for i, sec := range v.Sections {
		if len(sec.Tag) != 4 || !validHash(sec.Hash) {
			return recipe{}, fmt.Errorf("recipe section %d: tag %q, hash %q", i, sec.Tag, sec.Hash)
		}
		r.sections[i].shared = true
		copy(r.sections[i].tag[:], sec.Tag)
		for j := range r.sections[i].sum {
			r.sections[i].sum[j] = unhex(sec.Hash[2*j])<<4 | unhex(sec.Hash[2*j+1])
		}
	}
	return r, nil
}

// unhex is the value of a lowercase hex digit, which validHash has
// checked c is.
func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

func (s *Store) sectionPath(sum [sha256.Size]byte) string {
	return filepath.Join(s.dir, "sections", hex.EncodeToString(sum[:]))
}

func (s *Store) recipePath(hash string) string { return filepath.Join(s.dir, "recipes", hash) }

// PutStats reports what one PutSnapshot actually wrote — the dedupe
// accounting behind the dorado_store_sections_deduped metrics family and
// the "re-parking stores less" acceptance check. Only sections of
// sharedMin bytes or more are files of their own; the rest ride in the
// recipe and are counted in NewBytes through it.
type PutStats struct {
	// Hash is the snapshot's content address (SHA-256 of the full
	// document).
	Hash string
	// Sections is the number of section files the snapshot references.
	Sections int
	// DedupedSections counts those files that already existed in the
	// store and were not rewritten.
	DedupedSections int
	// NewBytes is the number of payload bytes actually written: new
	// section files plus the recipe.
	NewBytes int64
	// DedupedBytes is the number of bytes in the section files that
	// already existed.
	DedupedBytes int64
}

// PutSnapshot stores a machine snapshot with section-level dedupe: each
// section body of sharedMin bytes or more becomes (or joins) a
// content-addressed file under sections/, and a recipe under
// recipes/<full-hash> holds the smaller sections and says how to
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
	st := PutStats{Hash: hash}
	r := recipe{header: doc.Header, sections: make([]recipeSection, len(doc.Sections))}
	for i, sec := range doc.Sections {
		rs := &r.sections[i]
		copy(rs.tag[:], sec.Tag)
		rs.body = sec.Body
		if len(sec.Body) >= sharedMin {
			rs.shared = true
			rs.sum = sha256.Sum256(sec.Body)
			st.Sections++
		}
	}
	enc := r.encode()
	// Only the writes hold the store lock, serializing against Sweep: the
	// dedupe decision ("this section already exists, skip it") and the
	// recipe write that depends on it must see a frozen reclamation state,
	// or a concurrent sweep could delete a section between the two.
	s.mu.Lock()
	defer s.mu.Unlock()
	// A snapshot the store already holds has every section present, and
	// nothing is written for it.
	stored := s.Has(hash)
	for _, sec := range r.sections {
		if !sec.shared {
			continue
		}
		path := s.sectionPath(sec.sum)
		if _, err := os.Stat(path); stored || err == nil {
			st.DedupedSections++
			st.DedupedBytes += int64(len(sec.body))
			continue
		}
		if err := WriteFileAtomic(path, sec.body); err != nil {
			return PutStats{}, fmt.Errorf("store: writing section: %w", err)
		}
		st.NewBytes += int64(len(sec.body))
	}
	// Recipe last: a crash before this rename leaves only unreferenced
	// sections (GC fodder), never a recipe naming missing sections.
	if !stored {
		if err := WriteFileAtomic(s.recipePath(hash), enc); err != nil {
			return PutStats{}, fmt.Errorf("store: writing recipe: %w", err)
		}
		st.NewBytes += int64(len(enc))
	}
	s.dedupe.sections.Add(uint64(st.DedupedSections))
	s.dedupe.bytes.Add(uint64(st.DedupedBytes))
	return st, nil
}

// readRecipe loads and decodes the recipe for hash. A recipe from a
// future format generation fails loudly rather than reassembling garbage.
func (s *Store) readRecipe(hash string) (recipe, error) {
	data, err := os.ReadFile(s.recipePath(hash))
	if err != nil {
		return recipe{}, err
	}
	r, err := decodeRecipe(data)
	if err != nil {
		return recipe{}, fmt.Errorf("store: snapshot %s: %w", hash, err)
	}
	return r, nil
}

// assemble reconstructs a snapshot from its recipe into one buffer and
// verifies the result hashes to its name.
func (s *Store) assemble(hash string) ([]byte, error) {
	r, err := s.readRecipe(hash)
	if err != nil {
		return nil, err
	}
	// Open the shared sections first and size the buffer from the recipe
	// and the files' own sizes, so a damaged recipe cannot make Get
	// allocate more than the files on disk hold.
	files := make([]struct {
		f *os.File
		n int
	}, len(r.sections))
	defer func() {
		for _, sf := range files {
			if sf.f != nil {
				sf.f.Close()
			}
		}
	}()
	size := len(r.header)
	for i, sec := range r.sections {
		size += 8 + len(sec.body)
		if !sec.shared {
			continue
		}
		f, err := os.Open(s.sectionPath(sec.sum))
		if err != nil {
			return nil, fmt.Errorf("store: snapshot %s section %s: %w", hash, sec.tag[:], err)
		}
		files[i].f = f
		info, err := f.Stat()
		if err != nil {
			return nil, fmt.Errorf("store: snapshot %s section %s: %w", hash, sec.tag[:], err)
		}
		files[i].n = int(info.Size())
		size += files[i].n
	}
	le := binary.LittleEndian
	data := make([]byte, 0, size)
	data = append(data, r.header...)
	for i, sec := range r.sections {
		data = append(data, sec.tag[:]...)
		if !sec.shared {
			data = le.AppendUint32(data, uint32(len(sec.body)))
			data = append(data, sec.body...)
			continue
		}
		data = le.AppendUint32(data, uint32(files[i].n))
		at := len(data)
		data = data[:at+files[i].n]
		if _, err := io.ReadFull(files[i].f, data[at:]); err != nil {
			return nil, fmt.Errorf("store: snapshot %s section %s: %w", hash, sec.tag[:], err)
		}
	}
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
	// SectionsDeduped counts section files PutSnapshot did not write
	// because an identical one already existed (process lifetime);
	// sections that ride in a recipe are not counted.
	SectionsDeduped uint64 `json:"sections_deduped"`
	// DedupedBytes is the byte total of those section files.
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

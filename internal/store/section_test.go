package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dorado/internal/state"
)

// snapDoc builds a valid snapshot document from (tag, body) pairs under the
// given header version bytes, using the same framing the machine emits.
func snapDoc(version uint16, sections ...state.RawSection) []byte {
	d := state.Doc{
		Header:   []byte{'D', 'S', 'N', 'P', byte(version), byte(version >> 8)},
		Sections: sections,
	}
	return d.Join()
}

func bigBody(fill byte, n int) []byte { return bytes.Repeat([]byte{fill}, n) }

// putDoc stores a one-section snapshot document around body and returns
// its hash.
func putDoc(t *testing.T, s *Store, body string) string {
	t.Helper()
	st, err := s.PutSnapshot(snapDoc(1, state.RawSection{Tag: "PROC", Body: []byte(body)}))
	if err != nil {
		t.Fatal(err)
	}
	return st.Hash
}

func TestPutSnapshotSectionsAndReassembly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc := snapDoc(1,
		state.RawSection{Tag: "MEM0", Body: bigBody('m', 4096)},
		state.RawSection{Tag: "PROC", Body: bigBody('p', 128)},
	)
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != Hash(doc) || st.Sections != 2 || st.DedupedSections != 0 {
		t.Fatalf("first put = %+v", st)
	}
	if !s.Has(st.Hash) {
		t.Error("Has = false for a sectioned snapshot")
	}
	// Nothing lands in blobs/ (it holds only spec sidecars); the recipe +
	// sections are the storage.
	if _, err := os.Stat(filepath.Join(dir, "blobs", st.Hash)); !os.IsNotExist(err) {
		t.Errorf("whole blob exists for a snapshot: %v", err)
	}
	got, err := s.Get(st.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("reassembled snapshot differs from the original")
	}

	// Idempotent re-put: nothing new written, everything deduped.
	again, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if again.NewBytes != 0 || again.DedupedSections != 2 {
		t.Fatalf("idempotent re-put = %+v", again)
	}

	// A second snapshot sharing the big memory section writes only the
	// changed section + recipe — the "re-park stores less" property.
	doc2 := snapDoc(1,
		state.RawSection{Tag: "MEM0", Body: bigBody('m', 4096)},
		state.RawSection{Tag: "PROC", Body: bigBody('q', 128)},
	)
	st2, err := s.PutSnapshot(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DedupedSections != 1 || st2.DedupedBytes != 4096 {
		t.Fatalf("shared-section put = %+v", st2)
	}
	if st2.NewBytes >= int64(len(doc2))/2 {
		t.Fatalf("re-park wrote %d new bytes for a %d-byte snapshot (dedupe < 50%%)", st2.NewBytes, len(doc2))
	}
	if got2, err := s.Get(st2.Hash); err != nil || !bytes.Equal(got2, doc2) {
		t.Fatalf("second snapshot round trip: %v", err)
	}

	// The process-lifetime counters feed Stats.
	inv := s.Stats()
	if inv.Recipes != 2 || inv.Sections != 3 || inv.SectionsDeduped != 3 {
		t.Fatalf("stats = %+v", inv)
	}
	if inv.DedupedBytes == 0 || inv.Bytes == 0 {
		t.Fatalf("stats bytes = %+v", inv)
	}
}

// TestPutSnapshotRejectsNonSnapshot: bytes that are not a snapshot
// document are refused, and nothing is written for them.
func TestPutSnapshotRejectsNonSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("not a snapshot document at all")
	if st, err := s.PutSnapshot(data); err == nil {
		t.Fatalf("non-snapshot bytes stored: %+v", st)
	}
	for _, sub := range []string{"recipes", "sections", "blobs"} {
		if n, _ := dirStats(filepath.Join(dir, sub)); n != 0 {
			t.Errorf("%s/ holds %d files after a refused put", sub, n)
		}
	}
	if s.Has(Hash(data)) {
		t.Error("Has = true for refused bytes")
	}
}

// TestPutSnapshotCrossVersion: the section store is format-agnostic —
// snapshots from different format generations dedupe shared sections and
// reassemble to their exact original bytes (and hence original hashes).
func TestPutSnapshotCrossVersion(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := state.RawSection{Tag: "MEM0", Body: bigBody('m', 2048)}
	v1 := snapDoc(1, shared)
	v2 := snapDoc(2, shared) // same sections, bumped format version
	st1, err := s.PutSnapshot(v1)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.PutSnapshot(v2)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hash == st2.Hash {
		t.Fatal("different format versions hashed identically")
	}
	if st2.DedupedSections != 1 {
		t.Fatalf("shared section not deduped across versions: %+v", st2)
	}
	for _, want := range [][]byte{v1, v2} {
		got, err := s.Get(Hash(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cross-version round trip: %v", err)
		}
	}
}

func TestRecipeVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc := snapDoc(1, state.RawSection{Tag: "AAAA", Body: []byte("body")})
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	// A recipe from a future store build must fail loudly, not reassemble
	// garbage and not claim the snapshot is absent.
	raw, err := os.ReadFile(filepath.Join(dir, "recipes", st.Hash))
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":99`), 1)
	if err := os.WriteFile(filepath.Join(dir, "recipes", st.Hash), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(st.Hash)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future recipe version: %v", err)
	}
	if errors.Is(err, ErrNoBlob) {
		t.Fatal("unreadable recipe reported as missing blob")
	}
}

func TestGetSectionedCorruptSectionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc := snapDoc(1, state.RawSection{Tag: "AAAA", Body: []byte("pristine body")})
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	secHash := Hash([]byte("pristine body"))
	if err := os.WriteFile(filepath.Join(dir, "sections", secHash), []byte("tampered body"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(st.Hash); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("tampered section read: %v", err)
	}
}

// TestPutSnapshotHashed covers the hash-once path a park takes: a put
// under the caller's hash stores what PutSnapshot would, a malformed hash
// is refused before it can name a file, and a wrong hash is caught by
// Get's re-verification rather than returning the wrong snapshot.
func TestPutSnapshotHashed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	doc := snapDoc(1, state.RawSection{Tag: "MEM0", Body: bigBody('m', 4096)})
	st, err := s.PutSnapshotHashed(Hash(doc), doc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != Hash(doc) || st.Sections != 1 {
		t.Fatalf("hashed put = %+v", st)
	}
	if got, err := s.Get(st.Hash); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("Get after hashed put: %v", err)
	}

	if _, err := s.PutSnapshotHashed("../escape", doc); err == nil {
		t.Error("malformed hash accepted")
	}

	other := snapDoc(1, state.RawSection{Tag: "MEM0", Body: bigBody('n', 4096)})
	wrong := Hash(other)
	if _, err := s.PutSnapshotHashed(wrong, doc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(wrong); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Get under a wrong hash = %v, want a corruption error", err)
	}
}

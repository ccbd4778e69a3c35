package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dorado/internal/state"
	"dorado/internal/store/storetest"
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
		state.RawSection{Tag: "MEM0", Body: bigBody('m', sharedMin)},
		state.RawSection{Tag: "PROC", Body: bigBody('p', 128)},
	)
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != Hash(doc) || st.Sections != 1 || st.DedupedSections != 0 {
		t.Fatalf("first put = %+v", st)
	}
	if !s.Has(st.Hash) {
		t.Error("Has = false for a sectioned snapshot")
	}
	// The recipe and the one shared section are the storage: the small
	// section rides in the recipe, and nothing lands in blobs/ (it holds
	// only spec sidecars).
	recipes, _ := dirStats(filepath.Join(dir, "recipes"))
	if n, _ := dirStats(filepath.Join(dir, "sections")); n != 1 || recipes != 1 {
		t.Errorf("%d section files and %d recipes, want 1 and 1", n, recipes)
	}
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
	if again.NewBytes != 0 || again.DedupedSections != 1 {
		t.Fatalf("idempotent re-put = %+v", again)
	}

	// A second snapshot sharing the big memory section writes only the
	// recipe, which carries the changed section — the "re-park stores
	// less" property.
	doc2 := snapDoc(1,
		state.RawSection{Tag: "MEM0", Body: bigBody('m', sharedMin)},
		state.RawSection{Tag: "PROC", Body: bigBody('q', 128)},
	)
	st2, err := s.PutSnapshot(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Sections != 1 || st2.DedupedSections != 1 || st2.DedupedBytes != sharedMin {
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
	if inv.Recipes != 2 || inv.Sections != 1 || inv.SectionsDeduped != 2 {
		t.Fatalf("stats = %+v", inv)
	}
	if inv.DedupedBytes == 0 || inv.Bytes == 0 {
		t.Fatalf("stats bytes = %+v", inv)
	}
}

// TestSharedMinBoundary: a section of sharedMin bytes is a file of its
// own and one byte shorter rides in the recipe; NewBytes counts the new
// file and the recipe.
func TestSharedMinBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc := snapDoc(2,
		state.RawSection{Tag: "SHRT", Body: bigBody('s', sharedMin-1)},
		state.RawSection{Tag: "LONG", Body: bigBody('l', sharedMin)},
	)
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	recipe, err := os.ReadFile(filepath.Join(dir, "recipes", st.Hash))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sections != 1 || st.NewBytes != int64(sharedMin+len(recipe)) {
		t.Fatalf("put = %+v, want 1 section file and %d new bytes", st, sharedMin+len(recipe))
	}
	if _, err := os.Stat(filepath.Join(dir, "sections", Hash(bigBody('l', sharedMin)))); err != nil {
		t.Fatalf("the section of sharedMin bytes: %v", err)
	}
	if n, _ := dirStats(filepath.Join(dir, "sections")); n != 1 {
		t.Fatalf("%d section files, want 1", n)
	}
	if got, err := s.Get(st.Hash); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("round trip: %v", err)
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
	shared := state.RawSection{Tag: "MEM0", Body: bigBody('m', sharedMin)}
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

// TestRecipeVersionRejected: a recipe from a future store build, binary
// or JSON, fails Get loudly: not reassembled into garbage, and not
// claimed absent.
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
	future, err := os.ReadFile(filepath.Join(dir, "recipes", st.Hash))
	if err != nil {
		t.Fatal(err)
	}
	future[len(recipeMagic)] = 3
	v1 := snapDoc(1, state.RawSection{Tag: "BBBB", Body: []byte("older body")})
	v1Hash, _, err := storetest.PutRecipeV1(dir, v1)
	if err != nil {
		t.Fatal(err)
	}
	v1Recipe, err := os.ReadFile(filepath.Join(dir, "recipes", v1Hash))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(v1Hash); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("version-1 recipe before the edit: %v", err)
	}
	for _, c := range []struct {
		name, hash string
		recipe     []byte
	}{
		{"binary version 3", st.Hash, future},
		{"JSON version 99", v1Hash, bytes.Replace(v1Recipe, []byte(`"version":1`), []byte(`"version":99`), 1)},
	} {
		if err := os.WriteFile(filepath.Join(dir, "recipes", c.hash), c.recipe, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = s.Get(c.hash)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s: %v", c.name, err)
		}
		if errors.Is(err, ErrNoBlob) {
			t.Fatalf("%s: unreadable recipe reported as missing blob", c.name)
		}
	}
}

// TestGetSectionedCorruptSectionDetected: a byte flipped in an inline
// body (inside the recipe) or in a shared section file fails Get, since
// the reassembly no longer hashes to its name.
func TestGetSectionedCorruptSectionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := bigBody('m', sharedMin)
	doc := snapDoc(1,
		state.RawSection{Tag: "AAAA", Body: []byte("pristine body")},
		state.RawSection{Tag: "MEM0", Body: shared},
	)
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	recipe := filepath.Join(dir, "recipes", st.Hash)
	for _, c := range []struct {
		name, path string
		at         func([]byte) int
	}{
		{"inline body", recipe, func(b []byte) int { return bytes.Index(b, []byte("pristine")) }},
		{"shared section", filepath.Join(dir, "sections", Hash(shared)), func(b []byte) int { return len(b) / 2 }},
	} {
		saved, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		at := c.at(saved)
		if at < 0 {
			t.Fatalf("%s: nothing to flip", c.name)
		}
		tampered := bytes.Clone(saved)
		tampered[at] ^= 0x20
		if err := os.WriteFile(c.path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(st.Hash); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s tampered: %v", c.name, err)
		}
		if err := os.WriteFile(c.path, saved, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(st.Hash); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("%s restored: %v", c.name, err)
		}
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

// TestRecipeVersion1Read: a store an older build wrote, with version-1
// JSON recipes and every section a file, is read by Get, Has and Sweep.
// A surviving version-1 recipe anchors every section it names, and a
// reclaimed one takes the sections only it named.
func TestRecipeVersion1Read(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := state.RawSection{Tag: "MEM0", Body: bigBody('m', sharedMin)}
	kept := snapDoc(2, shared, state.RawSection{Tag: "PROC", Body: []byte("kept core")})
	dead := snapDoc(2, shared, state.RawSection{Tag: "PROC", Body: []byte("dead core")})
	keptHash, keptSections, err := storetest.PutRecipeV1(dir, kept)
	if err != nil {
		t.Fatal(err)
	}
	deadHash, deadSections, err := storetest.PutRecipeV1(dir, dead)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		hash string
		doc  []byte
	}{{keptHash, kept}, {deadHash, dead}} {
		if !s.Has(c.hash) {
			t.Fatalf("Has(%s) = false for a version-1 recipe", c.hash)
		}
		if got, err := s.Get(c.hash); err != nil || !bytes.Equal(got, c.doc) {
			t.Fatalf("Get of a version-1 recipe: %v", err)
		}
	}
	// A binary re-put of the kept snapshot is a no-op: the store holds it.
	if st, err := s.PutSnapshot(kept); err != nil || st.NewBytes != 0 {
		t.Fatalf("re-put over a version-1 recipe = %+v, %v", st, err)
	}

	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: keptHash}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Sweep(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedRecipes != 1 || res.ReclaimedSections != 1 || s.Has(deadHash) {
		t.Fatalf("sweep = %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "sections", deadSections[1])); !os.IsNotExist(err) {
		t.Errorf("the dead recipe's private section: %v", err)
	}
	for _, h := range keptSections {
		if _, err := os.Stat(filepath.Join(dir, "sections", h)); err != nil {
			t.Errorf("a section of the kept version-1 recipe: %v", err)
		}
	}
	if got, err := s.Get(keptHash); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("kept version-1 snapshot after the sweep: %v", err)
	}
}

// recipeFixture is a recipe of every shape: a header, an empty inline
// body, a shared section and an inline one.
func recipeFixture() []byte {
	r := recipe{header: []byte("DSNP\x02\x00"), sections: []recipeSection{
		{tag: [4]byte{'E', 'M', 'P', 'T'}},
		{tag: [4]byte{'U', 'I', 'M', 'S'}, shared: true, sum: sha256.Sum256([]byte("microstore"))},
		{tag: [4]byte{'C', 'T', 'R', 'L'}, body: []byte("control")},
	}}
	return r.encode()
}

// TestRecipeCodec: the binary recipe round trips, and the decoder refuses
// each malformed shape with an error rather than a panic or a partial
// recipe.
func TestRecipeCodec(t *testing.T) {
	enc := recipeFixture()
	r, err := decodeRecipe(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.sections) != 3 || !r.sections[1].shared || string(r.sections[2].body) != "control" || string(r.header) != "DSNP\x02\x00" {
		t.Fatalf("decoded %+v", r)
	}
	if again := r.encode(); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoded % x, want % x", again, enc)
	}
	le := binary.LittleEndian
	patched := func(at int, v uint32) []byte {
		b := bytes.Clone(enc)
		le.PutUint32(b[at:], v)
		return b
	}
	ctrl := bytes.LastIndex(enc, []byte("CTRL"))
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"empty", "recipe", nil},
		{"magic alone", "truncated", []byte(recipeMagic)},
		{"truncated", "truncated", enc[:len(enc)-1]},
		{"trailing bytes", "trailing", append(bytes.Clone(enc), 0)},
		{"header past the end", "truncated", patched(6, 1<<31)},
		{"count past the end", "claims", patched(6+4+6, 1000)},
		{"body past the end", "truncated", patched(ctrl+5, 1<<20)},
		{"unknown kind", "kind", func() []byte { b := bytes.Clone(enc); b[ctrl+4] = 7; return b }()},
		{"unknown version", "version 3", func() []byte { b := bytes.Clone(enc); b[4] = 3; return b }()},
		{"JSON version 2", "JSON recipe version 2", []byte(`{"version":2}`)},
		{"JSON short tag", "tag", []byte(`{"version":1,"sections":[{"tag":"AB","hash":"` + strings.Repeat("0", 64) + `"}]}`)},
	} {
		if _, err := decodeRecipe(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestRecipeClaimsBounded: a recipe whose section count claims far more
// than its bytes hold is refused before the sections are allocated.
func TestRecipeClaimsBounded(t *testing.T) {
	enc := recipeFixture()
	binary.LittleEndian.PutUint32(enc[6+4+6:], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeRecipe(enc)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count of 2^20 over three sections decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Fatalf("refusing a count of 2^20 allocated %d bytes", got)
	}
}

// FuzzRecipe: on any bytes the decoder returns a recipe or an error,
// never panics, allocates sections only for a count the input can hold,
// and an accepted binary recipe re-encodes byte for byte.
func FuzzRecipe(f *testing.F) {
	enc := recipeFixture()
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	r := recipe{header: []byte("DSNP\x01\x00")}
	f.Add(r.encode())
	f.Add([]byte(`{"version":1,"header":"RFNOUAIA","sections":[{"tag":"UIMS","hash":"` + Hash(nil) + `"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecipe(data)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(recipeMagic)) {
			return // version 1, which is never written again
		}
		if cap(r.sections)*recipeMinSection > len(data) {
			t.Fatalf("%d bytes decoded into room for %d sections", len(data), cap(r.sections))
		}
		if again := r.encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted recipe % x re-encodes as % x", data, again)
		}
	})
}

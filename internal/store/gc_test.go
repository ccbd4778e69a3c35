package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dorado/internal/state"
)

// sweepAll runs a Sweep with no age grace — every unreferenced item is a
// candidate — which is what the lifecycle tests need.
func sweepAll(t *testing.T, s *Store) SweepResult {
	t.Helper()
	res, err := s.Sweep(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepKeepsManifestReachable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One snapshot referenced by the manifest, one orphan, each with a
	// shared section of its own and an inline one.
	kept := putShared(t, s, 'k')
	if err := s.PutMeta(kept, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	orphan := putShared(t, s, 'o')
	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: kept}); err != nil {
		t.Fatal(err)
	}

	res := sweepAll(t, s)
	if res.ReclaimedRecipes != 1 || res.ReclaimedSections != 1 || res.ReclaimedBytes == 0 {
		t.Fatalf("sweep = %+v", res)
	}
	if !s.Has(kept) || s.Has(orphan) {
		t.Fatalf("post-sweep: kept=%v orphan=%v", s.Has(kept), s.Has(orphan))
	}
	// The kept snapshot's sidecar also survived.
	if _, err := s.Meta(kept); err != nil {
		t.Errorf("sidecar of kept snapshot: %v", err)
	}
	// Idempotent: a second sweep finds nothing.
	if res := sweepAll(t, s); res.ReclaimedRecipes != 0 || res.ReclaimedBytes != 0 {
		t.Fatalf("second sweep = %+v", res)
	}
	st := s.Stats()
	if st.GCRuns != 2 || st.GCReclaimedBytes == 0 {
		t.Fatalf("gc stats = %+v", st)
	}
}

func TestSweepSectionedSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := state.RawSection{Tag: "MEM0", Body: bigBody('m', sharedMin)}
	keptDoc := snapDoc(1, shared,
		state.RawSection{Tag: "PROC", Body: []byte("kept core")},
		state.RawSection{Tag: "MDAT", Body: bigBody('k', sharedMin)})
	deadDoc := snapDoc(1, shared,
		state.RawSection{Tag: "PROC", Body: []byte("dead core")},
		state.RawSection{Tag: "MDAT", Body: bigBody('d', sharedMin)})
	keptStat, err := s.PutSnapshot(keptDoc)
	if err != nil {
		t.Fatal(err)
	}
	deadStat, err := s.PutSnapshot(deadDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: keptStat.Hash}); err != nil {
		t.Fatal(err)
	}

	res := sweepAll(t, s)
	// The dead recipe goes, along with its inline core and its private
	// section file; the shared section survives because the kept recipe
	// still names it.
	if res.ReclaimedRecipes != 1 || res.ReclaimedSections != 1 {
		t.Fatalf("sweep = %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "sections", Hash(bigBody('d', sharedMin)))); !os.IsNotExist(err) {
		t.Errorf("dead snapshot's private section: %v", err)
	}
	for _, body := range [][]byte{shared.Body, bigBody('k', sharedMin)} {
		if _, err := os.Stat(filepath.Join(dir, "sections", Hash(body))); err != nil {
			t.Errorf("kept snapshot's section: %v", err)
		}
	}
	if s.Has(deadStat.Hash) {
		t.Error("dead sectioned snapshot still readable")
	}
	if got, err := s.Get(keptStat.Hash); err != nil || string(got) != string(keptDoc) {
		t.Fatalf("kept sectioned snapshot after sweep: %v", err)
	}
}

func TestSweepHonorsAgeAndPins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := putDoc(t, s, "unreferenced but fresh")
	pinned := putDoc(t, s, "unreferenced but pinned")
	unpin := s.Pin(pinned)
	// Both survive an aged sweep: one is young, one is pinned.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "recipes", pinned), old, old); err != nil {
		t.Fatal(err)
	}
	res, err := s.Sweep(GCPolicy{MaxAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedRecipes != 0 || !s.Has(fresh) || !s.Has(pinned) {
		t.Fatalf("aged sweep = %+v", res)
	}
	// Releasing the pin (idempotently) exposes the old recipe; the fresh
	// one is still inside its grace window.
	unpin()
	unpin()
	res, err = s.Sweep(GCPolicy{MaxAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedRecipes != 1 || s.Has(pinned) || !s.Has(fresh) {
		t.Fatalf("post-unpin sweep = %+v", res)
	}
}

// TestSweepUnreadableReachableRecipe: corruption under a live root must
// stop the section pass rather than cascade into deleting sections some
// other reading of the recipe might still need.
func TestSweepUnreadableReachableRecipe(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash := putShared(t, s, 'b')
	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: hash}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "recipes", hash)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A recipe cut short and a broken version-1 JSON recipe alike.
	for _, broken := range [][]byte{saved[:len(saved)-1], []byte("{broken")} {
		if err := os.WriteFile(path, broken, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sweep(GCPolicy{}); err == nil {
			t.Fatalf("sweep over the unreadable reachable recipe %q succeeded", broken[:min(len(broken), 8)])
		}
		// The section behind the broken recipe was not touched.
		if n, _ := dirStats(filepath.Join(dir, "sections")); n != 1 {
			t.Fatalf("sections after aborted sweep = %d", n)
		}
	}
}

// putShared stores a snapshot holding a shared section filled with fill
// and an inline one, and returns its hash.
func putShared(t *testing.T, s *Store, fill byte) string {
	t.Helper()
	st, err := s.PutSnapshot(snapDoc(2,
		state.RawSection{Tag: "PROC", Body: []byte{fill}},
		state.RawSection{Tag: "MEM0", Body: bigBody(fill, sharedMin)}))
	if err != nil {
		t.Fatal(err)
	}
	return st.Hash
}

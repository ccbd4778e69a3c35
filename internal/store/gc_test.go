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
	// One snapshot referenced by the manifest, one orphan.
	kept := putDoc(t, s, "referenced snapshot")
	if err := s.PutMeta(kept, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	orphan := putDoc(t, s, "orphaned snapshot")
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
	shared := state.RawSection{Tag: "MEM0", Body: bigBody('m', 2048)}
	keptDoc := snapDoc(1, shared, state.RawSection{Tag: "PROC", Body: []byte("kept core")})
	deadDoc := snapDoc(1, shared, state.RawSection{Tag: "PROC", Body: []byte("dead core")})
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
	// The dead recipe goes, along with its private section; the shared
	// section survives because the kept recipe still names it.
	if res.ReclaimedRecipes != 1 || res.ReclaimedSections != 1 {
		t.Fatalf("sweep = %+v", res)
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
	doc := snapDoc(1, state.RawSection{Tag: "AAAA", Body: []byte("body bytes")})
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: st.Hash}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "recipes", st.Hash), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep(GCPolicy{}); err == nil {
		t.Fatal("sweep over an unreadable reachable recipe succeeded")
	}
	// The sections behind the broken recipe were not touched.
	if n, _ := dirStats(filepath.Join(dir, "sections")); n != 1 {
		t.Fatalf("sections after aborted sweep = %d", n)
	}
}

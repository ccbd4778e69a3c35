package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dorado/internal/state"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := snapDoc(1, state.RawSection{Tag: "PROC", Body: []byte("fake snapshot bytes")})
	st, err := s.PutSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	hash := st.Hash
	if hash != Hash(data) || len(hash) != 64 {
		t.Fatalf("hash = %q", hash)
	}
	if !s.Has(hash) {
		t.Error("Has = false after PutSnapshot")
	}
	got, err := s.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("Get = %q", got)
	}
	// Idempotent: a second put of the same content is the same snapshot.
	again, err := s.PutSnapshot(data)
	if err != nil || again.Hash != hash || again.NewBytes != 0 {
		t.Fatalf("second PutSnapshot = %+v, %v", again, err)
	}
}

func TestGetUnknownAndMalformed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	missing := Hash([]byte("never stored"))
	if _, err := s.Get(missing); !errors.Is(err, ErrNoBlob) {
		t.Errorf("missing blob: %v", err)
	}
	// Malformed hashes must be rejected before any path is built; the
	// traversal attempt is the case that matters.
	for _, h := range []string{"", "xyz", "../../etc/passwd", strings.Repeat("A", 64)} {
		if _, err := s.Get(h); !errors.Is(err, ErrNoBlob) {
			t.Errorf("Get(%q): %v", h, err)
		}
		if s.Has(h) {
			t.Errorf("Has(%q) = true", h)
		}
	}
}

func TestMetaSidecar(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := putDoc(t, s, "snapshot")
	if _, err := s.Meta(hash); !errors.Is(err, ErrNoBlob) {
		t.Errorf("meta before PutMeta: %v", err)
	}
	spec := json.RawMessage(`{"Language":"mesa"}`)
	if err := s.PutMeta(hash, spec); err != nil {
		t.Fatal(err)
	}
	got, err := s.Meta(hash)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(spec) {
		t.Fatalf("meta = %s", got)
	}
	if err := s.PutMeta("nope", spec); !errors.Is(err, ErrNoBlob) {
		t.Errorf("PutMeta malformed hash: %v", err)
	}
}

func TestManifestPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash := putDoc(t, s, "snapshot")
	when := time.Unix(1_700_000_000, 0).UTC()
	for _, e := range []Entry{
		{ID: "s2", Seq: 2, Spec: json.RawMessage(`{}`), Hash: hash, Cycle: 500, ParkedAt: when},
		{ID: "s1", Seq: 1, Spec: json.RawMessage(`{"Language":"mesa"}`), Hash: hash, Cycle: 42, ParkedAt: when},
	} {
		if err := s.SaveSession(e); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh Open over the same directory sees both entries, Seq-sorted.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	list := re.Sessions()
	if len(list) != 2 || list[0].ID != "s1" || list[1].ID != "s2" {
		t.Fatalf("sessions = %+v", list)
	}
	if list[0].Cycle != 42 || list[0].Hash != hash || !list[0].ParkedAt.Equal(when) {
		t.Fatalf("entry = %+v", list[0])
	}

	if err := re.DeleteSession("s1"); err != nil {
		t.Fatal(err)
	}
	if err := re.DeleteSession("s1"); err != nil { // idempotent
		t.Fatal(err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if list := re2.Sessions(); len(list) != 1 || list[0].ID != "s2" {
		t.Fatalf("after delete = %+v", list)
	}
	// The snapshot survives session deletion (content-addressed, fork
	// fodder).
	if !re2.Has(hash) {
		t.Error("snapshot deleted with session")
	}
}

// TestFailedManifestWriteChangesNothing: a manifest change that cannot be
// written (here the store directory is renamed away, as a full disk
// fails the temp-file write) leaves the in-memory manifest as it was. A
// failed delete keeps its entry, so a zero-grace sweep, which takes its
// roots from memory, keeps the snapshot the disk manifest still names; a
// failed save names nothing new.
func TestFailedManifestWriteChangesNothing(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash := putDoc(t, s, "parked s1")
	if err := s.PutMeta(hash, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: hash}); err != nil {
		t.Fatal(err)
	}

	away := filepath.Join(root, "away")
	if err := os.Rename(dir, away); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSession("s1"); err == nil {
		t.Fatal("DeleteSession succeeded with the store directory gone")
	}
	if err := s.SaveSession(Entry{ID: "s2", Seq: 2, Spec: json.RawMessage(`{}`), Hash: hash}); err == nil {
		t.Fatal("SaveSession succeeded with the store directory gone")
	}
	if err := os.Rename(away, dir); err != nil {
		t.Fatal(err)
	}
	if list := s.Sessions(); len(list) != 1 || list[0].ID != "s1" {
		t.Fatalf("in-memory manifest after failed writes = %+v, want s1 only", list)
	}

	if _, err := s.Sweep(GCPolicy{MaxAge: 0}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	list := re.Sessions()
	if len(list) != 1 || list[0].ID != "s1" {
		t.Fatalf("manifest on disk = %+v, want s1 only", list)
	}
	if _, err := re.Get(list[0].Hash); err != nil {
		t.Fatalf("snapshot of the kept entry: %v", err)
	}
}

func TestOpenRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
	// Version 1 (the whole-blob layout) is refused like a future version:
	// its sessions name snapshots this build cannot read.
	for _, v := range []int{1, 99} {
		doc := fmt.Sprintf(`{"version":%d,"sessions":{}}`, v)
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("manifest version %d,", v)) {
			t.Errorf("manifest version %d: %v", v, err)
		}
	}
}

// TestWritesSyncDirectories: every rename is followed by an fsync of its
// directory, in write order — sections, recipe, sidecar, manifest — so a
// crash cannot lose a name the manifest depends on; and a failed
// directory sync fails the write.
func TestWritesSyncDirectories(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each sync records its directory and the file names then in it, so
	// the log shows the rename landed before the sync.
	var synced []string
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(d string) error {
		ents, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		var names []string
		for _, e := range ents {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
		rel, _ := filepath.Rel(dir, d)
		synced = append(synced, rel+": "+strings.Join(names, " "))
		return nil
	}

	// Two shared sections and an inline one: the inline one is written
	// with the recipe, and the shared ones before it.
	a, b := bigBody('a', sharedMin), bigBody('b', sharedMin)
	doc := snapDoc(1,
		state.RawSection{Tag: "AAAA", Body: a},
		state.RawSection{Tag: "CCCC", Body: []byte("inline c")},
		state.RawSection{Tag: "BBBB", Body: b})
	st, err := s.PutSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeta(st.Hash, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: st.Hash}); err != nil {
		t.Fatal(err)
	}
	ha, hb := Hash(a), Hash(b)
	if ha > hb {
		ha, hb = hb, ha // ReadDir lists names sorted
	}
	want := []string{
		"sections: " + Hash(a),
		"sections: " + ha + " " + hb,
		"recipes: " + st.Hash,
		"blobs: " + st.Hash + ".json",
		".: manifest.json",
	}
	if strings.Join(synced, "\n") != strings.Join(want, "\n") {
		t.Fatalf("directory syncs:\n%s\nwant:\n%s", strings.Join(synced, "\n"), strings.Join(want, "\n"))
	}

	errSync := errors.New("directory sync failed")
	syncDir = func(string) error { return errSync }
	fresh := snapDoc(1, state.RawSection{Tag: "CCCC", Body: []byte("section c")})
	if _, err := s.PutSnapshot(fresh); !errors.Is(err, errSync) {
		t.Errorf("PutSnapshot of inline sections only with a failing directory sync: %v", err)
	}
	fresh = snapDoc(1, state.RawSection{Tag: "DDDD", Body: bigBody('d', sharedMin)})
	if _, err := s.PutSnapshot(fresh); !errors.Is(err, errSync) {
		t.Errorf("PutSnapshot with a failing directory sync: %v", err)
	}
	if err := s.PutMeta(st.Hash, json.RawMessage(`{}`)); !errors.Is(err, errSync) {
		t.Errorf("PutMeta with a failing directory sync: %v", err)
	}
	if err := s.SaveSession(Entry{ID: "s2", Seq: 2, Spec: json.RawMessage(`{}`), Hash: st.Hash}); !errors.Is(err, errSync) {
		t.Errorf("SaveSession with a failing directory sync: %v", err)
	}
}

// TestOpenRemovesKilledWriteTemps: a process killed inside
// WriteFileAtomic leaves its temporary file behind, in the store root or
// any payload directory. The next Open deletes every one of them and
// keeps every stored file, and the manifest adopts the same sessions.
func TestOpenRemovesKilledWriteTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash := putShared(t, s, 's')
	if err := s.PutMeta(hash, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSession(Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: hash, Cycle: 7}); err != nil {
		t.Fatal(err)
	}
	listing := func(sub string) []string {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
		return names
	}
	subs := []string{".", "recipes", "sections", "blobs"}
	stored := map[string][]string{}
	for _, sub := range subs {
		stored[sub] = listing(sub)
	}
	// What a killed write leaves: os.CreateTemp's name for the final one,
	// holding part of the bytes.
	other := Hash([]byte("another snapshot"))
	for _, temp := range []string{
		"manifest.json.tmp3141592",
		"recipes/" + other + ".tmp2718281",
		"sections/" + Hash(bigBody('x', sharedMin)) + ".tmp1414213",
		"blobs/" + other + ".json.tmp1732050",
	} {
		if err := os.WriteFile(filepath.Join(dir, temp), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if got := listing(sub); strings.Join(got, " ") != strings.Join(stored[sub], " ") {
			t.Errorf("%s/ after Open = %v, want %v", sub, got, stored[sub])
		}
	}
	if list := re.Sessions(); len(list) != 1 || list[0].ID != "s1" || list[0].Hash != hash || list[0].Cycle != 7 {
		t.Fatalf("adopted sessions = %+v", list)
	}
	if _, err := re.Get(hash); err != nil {
		t.Fatal(err)
	}
}

// TestPutCrashPrefix: a put that stops at any of its directory syncs, as
// a crash there would, leaves a store whose reopened Get of the snapshot
// answers ErrNoBlob or the exact bytes, never anything else.
func TestPutCrashPrefix(t *testing.T) {
	doc := snapDoc(2,
		state.RawSection{Tag: "CTRL", Body: []byte("processor")},
		state.RawSection{Tag: "UIMS", Body: bigBody('u', 2*sharedMin)},
		state.RawSection{Tag: "MCCH", Body: bigBody('c', sharedMin-1)},
		state.RawSection{Tag: "MDAT", Body: bigBody('m', sharedMin)},
	)
	hash := Hash(doc)
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	errCrash := errors.New("crashed at this sync")
	for k := 1; ; k++ {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		syncDir = func(d string) error {
			if calls++; calls == k {
				return errCrash
			}
			return orig(d)
		}
		_, putErr := s.PutSnapshot(doc)
		syncDir = orig
		if putErr != nil && !errors.Is(putErr, errCrash) {
			t.Fatalf("crash at sync %d: put failed with %v", k, putErr)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Get(hash)
		if !errors.Is(err, ErrNoBlob) && (err != nil || !bytes.Equal(got, doc)) {
			t.Fatalf("crash at sync %d: Get = %d bytes, %v; want ErrNoBlob or the snapshot", k, len(got), err)
		}
		if putErr == nil {
			if k != 4 {
				t.Fatalf("a put of two section files and a recipe synced %d times, want 3", k-1)
			}
			return
		}
	}
}

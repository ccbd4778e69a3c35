package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dorado/internal/memory"
	"dorado/internal/obs"
	"dorado/internal/state"
	"dorado/internal/state/statetest"
	"dorado/internal/store"
)

// parkNow parks a session that has no queued or running work; any error,
// ErrBusy included, fails the test.
func parkNow(t *testing.T, m *Manager, id string) ParkResult {
	t.Helper()
	res, err := m.Park(id)
	if err != nil {
		t.Fatalf("park %s: %v", id, err)
	}
	return res
}

// openStore opens a snapshot store rooted in dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	sdb, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// TestDurableParkByteIdentical is the park/revive drift check: parking,
// reviving from the store blob, and parking again must produce the same
// content hash — the from-disk revival path reproduces the machine
// byte-exactly.
func TestDurableParkByteIdentical(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 1000); err != nil {
		t.Fatal(err)
	}

	res := parkNow(t, m, id)
	if !res.Parked || res.Snapshot == "" {
		t.Fatalf("park = %+v", res)
	}
	blob, err := m.cfg.Store.Get(res.Snapshot)
	if err != nil {
		t.Fatalf("stored blob unreadable: %v", err)
	}
	if store.Hash(blob) != res.Snapshot {
		t.Fatal("blob does not hash to its name")
	}
	// Parking again while parked is an idempotent success.
	again := parkNow(t, m, id)
	if again.Snapshot != res.Snapshot {
		t.Fatalf("re-park hash = %s, want %s", again.Snapshot, res.Snapshot)
	}

	// First touch revives from the store blob.
	st, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Parked || st.Cycle != 1000 {
		t.Fatalf("revived state = %+v", st)
	}
	if m.counters.revived.Load() != 1 || m.counters.persisted.Load() != 1 {
		t.Fatalf("revived=%d persisted=%d", m.counters.revived.Load(), m.counters.persisted.Load())
	}

	// The drift check: a second park of the revived machine must address
	// the exact same bytes.
	reparked := parkNow(t, m, id)
	if reparked.Snapshot != res.Snapshot {
		t.Fatalf("park after revival = %s, want %s (revival drifted)", reparked.Snapshot, res.Snapshot)
	}

	// A zero-grace GC sweep must not touch the manifest-referenced
	// snapshot, and what survives must still reassemble to the exact bytes
	// parked — the sectioned storage is invisible to the drift guarantee.
	if _, err := m.GCStore(0); err != nil {
		t.Fatal(err)
	}
	after, err := m.cfg.Store.Get(res.Snapshot)
	if err != nil {
		t.Fatalf("snapshot unreadable after GC: %v", err)
	}
	if store.Hash(after) != res.Snapshot {
		t.Fatal("post-GC reassembly drifted from the parked bytes")
	}
}

// TestRestartRevival is the restart story at the Manager level: a fresh
// Manager over the same store directory lists the parked session, its
// listing carries the stored hash, and first touch revives the exact
// bytes the previous process parked.
func TestRestartRevival(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Workers: 1, Store: openStore(t, dir)})

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 1000); err != nil {
		t.Fatal(err)
	}
	res := parkNow(t, m, id)
	drainNow(t, m)

	// "Restart": a brand-new Manager over a brand-new Store handle.
	m2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m2)
	infos := m2.Sessions()
	if len(infos) != 1 {
		t.Fatalf("sessions after restart = %+v", infos)
	}
	in := infos[0]
	if in.ID != id || !in.Parked || in.Snapshot != res.Snapshot || in.Cycle != 1000 {
		t.Fatalf("adopted session = %+v, want parked %s @1000 with %s", in, id, res.Snapshot)
	}
	if m2.counters.adopted.Load() != 1 {
		t.Fatalf("adopted counter = %d", m2.counters.adopted.Load())
	}

	// First touch revives; the serialized machine is byte-identical to the
	// pre-restart park.
	snap, err := m2.Snapshot(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if store.Hash(snap) != res.Snapshot {
		t.Fatal("revived snapshot differs from the pre-restart bytes")
	}
	st, err := m2.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1000 || st.Parked {
		t.Fatalf("post-revival state = %+v", st)
	}

	// New ids continue past the adopted sequence instead of colliding.
	id2, err := m2.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted manager reissued id %q", id2)
	}

	// Destroy removes the manifest entry but keeps the blob (fork
	// fodder). id2 is live and unparked, so it has no entry yet — the
	// manifest is empty after the destroy.
	if err := m2.Destroy(id); err != nil {
		t.Fatal(err)
	}
	sdb := openStore(t, dir)
	if list := sdb.Sessions(); len(list) != 0 {
		t.Fatalf("manifest after destroy = %+v", list)
	}
	if !sdb.Has(res.Snapshot) {
		t.Fatal("destroy deleted the content-addressed blob")
	}
}

// TestAdoptedSessionListsWhatItParked: a restarted manager lists a parked
// session as the process that parked it did (halted, operations, and
// every per-session metric sample, translator and profiler families
// included) before anything revives it.
func TestAdoptedSessionListsWhatItParked(t *testing.T) {
	dir := t.TempDir()
	listing := func(m *Manager, id string) (Info, []string) {
		t.Helper()
		infos := m.Sessions()
		if len(infos) != 1 {
			t.Fatalf("sessions = %+v", infos)
		}
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, m.MetricsSnapshot()); err != nil {
			t.Fatal(err)
		}
		var samples []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, `session="`+id+`"`) {
				samples = append(samples, line)
			}
		}
		return infos[0], samples
	}
	m := New(Config{Workers: 1, Store: openStore(t, dir)})
	spec := Spec{Language: "mesa", Profile: true}
	spec.Machine.Translation.Enable = true
	id, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BootSource(tctx, id, "return 6*7;"); err != nil {
		t.Fatal(err)
	}
	if res, err := m.Run(tctx, id, 1_000_000); err != nil || !res.Halted {
		t.Fatalf("run = %+v, %v", res, err)
	}
	parkNow(t, m, id)
	before, beforeSamples := listing(m, id)
	drainNow(t, m)
	if !before.Parked || !before.Halted || before.Ops != 2 || len(beforeSamples) < 3 {
		t.Fatalf("listed before the restart: %+v, samples %q", before, beforeSamples)
	}

	m2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m2)
	after, afterSamples := listing(m2, id)
	if !reflect.DeepEqual(after, before) {
		t.Errorf("adopted row = %+v, listed before the restart %+v", after, before)
	}
	if !slices.Equal(afterSamples, beforeSamples) {
		t.Errorf("adopted samples:\n%s\nbefore the restart:\n%s",
			strings.Join(afterSamples, "\n"), strings.Join(beforeSamples, "\n"))
	}
}

// TestDrainParksIntoStore: sessions still live at drain time are parked
// into the store, so an abrupt-but-graceful shutdown loses nothing.
func TestDrainParksIntoStore(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Workers: 2, Store: openStore(t, dir)})

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m.Create(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(tctx, id, uint64(100*(i+1))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	drainNow(t, m) // no explicit park: Drain must persist all three

	m2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m2)
	infos := m2.Sessions()
	if len(infos) != len(ids) {
		t.Fatalf("restarted fleet = %+v", infos)
	}
	for i, in := range infos {
		want := uint64(100 * (i + 1))
		if in.ID != ids[i] || !in.Parked || in.Cycle != want || in.Snapshot == "" {
			t.Fatalf("session %d = %+v, want %s parked @%d", i, in, ids[i], want)
		}
		st, err := m2.ReadState(tctx, in.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycle != want {
			t.Fatalf("revived %s cycle = %d, want %d", in.ID, st.Cycle, want)
		}
	}
}

// TestCreateFromFork: any stored snapshot seeds a new session that then
// diverges independently of the original.
func TestCreateFromFork(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 1000); err != nil {
		t.Fatal(err)
	}
	res := parkNow(t, m, id)

	fork, err := m.CreateFrom(res.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if fork == id {
		t.Fatalf("fork reused id %q", fork)
	}
	if st, err := m.ReadState(tctx, fork); err != nil || st.Cycle != 1000 {
		t.Fatalf("fork state = %+v, %v", st, err)
	}
	if _, err := m.Run(tctx, fork, 500); err != nil {
		t.Fatal(err)
	}
	forkSt, err := m.ReadState(tctx, fork)
	if err != nil {
		t.Fatal(err)
	}
	origSt, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if forkSt.Cycle != 1500 || origSt.Cycle != 1000 {
		t.Fatalf("fork=%d orig=%d, want 1500/1000", forkSt.Cycle, origSt.Cycle)
	}
	if m.counters.forked.Load() != 1 {
		t.Fatalf("forked counter = %d", m.counters.forked.Load())
	}

	// Unknown hashes and storeless managers fail with typed sentinels.
	if _, err := m.CreateFrom("0000000000000000000000000000000000000000000000000000000000000000"); !errors.Is(err, store.ErrNoBlob) {
		t.Fatalf("unknown hash: %v", err)
	}
	plain := New(Config{Workers: 1})
	defer drainNow(t, plain)
	if _, err := plain.CreateFrom(res.Snapshot); !errors.Is(err, ErrNoStore) {
		t.Fatalf("storeless fork: %v", err)
	}
}

// TestForkListsNoOps: a fork starts with its donor's counters and no
// completed operation; the first operation on it is its first.
func TestForkListsNoOps(t *testing.T) {
	m := New(Config{Workers: 1, Store: openStore(t, t.TempDir())})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 1000); err != nil {
		t.Fatal(err)
	}
	fork, err := m.CreateFrom(parkNow(t, m, id).Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	info := func() Info {
		for _, in := range m.Sessions() {
			if in.ID == fork {
				return in
			}
		}
		t.Fatalf("fork %s not listed", fork)
		return Info{}
	}
	if in := info(); in.Ops != 0 || in.Cycle != 1000 || in.Parked {
		t.Fatalf("fresh fork lists %+v, want ops 0 at cycle 1000, live", in)
	}
	if _, err := m.Run(tctx, fork, 500); err != nil {
		t.Fatal(err)
	}
	if in := info(); in.Ops != 1 || in.Cycle != 1500 {
		t.Fatalf("fork after one run lists %+v, want ops 1 at cycle 1500", in)
	}
}

// TestDestroyKeepsSessionWhenManifestFails: a destroy whose manifest
// rewrite fails (the store directory is renamed away, as a full disk
// fails the write) reports the error and leaves the session listed,
// parked and in the manifest; retried once the directory is back, it
// succeeds.
func TestDestroyKeepsSessionWhenManifestFails(t *testing.T) {
	root := t.TempDir()
	dir := root + "/store"
	m := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	hash := parkNow(t, m, id).Snapshot
	if err := os.Rename(dir, root+"/away"); err != nil {
		t.Fatal(err)
	}
	if err := m.Destroy(id); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("destroy with the store directory gone: %v", err)
	}
	if err := os.Rename(root+"/away", dir); err != nil {
		t.Fatal(err)
	}
	if in := m.Sessions(); len(in) != 1 || in[0].ID != id || !in[0].Parked || in[0].Snapshot != hash {
		t.Fatalf("listing after the failed destroy = %+v", in)
	}
	if h := m.Health(); h.Sessions.Parked != 1 || h.Sessions.Total != 1 {
		t.Fatalf("health after the failed destroy = %+v", h.Sessions)
	}
	if err := m.Destroy(id); err != nil {
		t.Fatalf("retried destroy: %v", err)
	}
	if entries := openStore(t, dir).Sessions(); len(entries) != 0 {
		t.Fatalf("manifest after the retried destroy = %+v", entries)
	}
	if h := m.Health(); h.Sessions.Total != 0 {
		t.Fatalf("health after the retried destroy = %+v", h.Sessions)
	}
}

// TestFailedReviveIsSticky: a parked session whose snapshot cannot be
// read fails its revive once and stays failed — listed as parked,
// counted as parked, session_state "failed", every operation answering
// the same error — even after the snapshot comes back.
func TestFailedReviveIsSticky(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	recipe := dir + "/recipes/" + parkNow(t, m, id).Snapshot
	saved, err := os.ReadFile(recipe)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(recipe); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadState(tctx, id); !errors.Is(err, store.ErrNoBlob) {
		t.Fatalf("read of a session whose snapshot is gone: %v", err)
	}
	if err := os.WriteFile(recipe, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadState(tctx, id); !errors.Is(err, store.ErrNoBlob) {
		t.Fatalf("second read: %v, want the sticky revive error", err)
	}
	if got := m.sessionState(id); got != "failed" {
		t.Fatalf("session_state = %q, want failed", got)
	}
	if in := m.Sessions(); len(in) != 1 || !in[0].Parked {
		t.Fatalf("listing = %+v, want parked", in)
	}
	if h := m.Health(); h.Sessions.Active != 0 || h.Sessions.Parked != 1 {
		t.Fatalf("health = %+v, want 0 active, 1 parked", h.Sessions)
	}
	if n := m.counters.revived.Load(); n != 0 {
		t.Fatalf("revived counter = %d, want 0", n)
	}
}

// TestParkBusy: a session with in-flight work refuses an explicit park
// with ErrBusy instead of waiting or corrupting the queue.
func TestParkBusy(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainNow(t, m)
	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	running, release := blockSession(t, m, id)
	<-running
	if _, err := m.Park(id); !errors.Is(err, ErrBusy) {
		t.Fatalf("park while busy: %v", err)
	}
	release()
	// Without a store, parking still works — snapshot held in memory,
	// hash empty.
	res := parkNow(t, m, id)
	if !res.Parked || res.Snapshot != "" {
		t.Fatalf("storeless park = %+v", res)
	}
	if _, err := m.Park("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("park unknown: %v", err)
	}
}

// TestGCReclaimsSupersededParks is the lifecycle acceptance check: parking
// a session after each of N work bursts leaves N snapshots in the store,
// only the newest of which the manifest references; a sweep reclaims the
// other N-1 (store bytes demonstrably fall), and the surviving snapshot
// still revives the session.
func TestGCReclaimsSupersededParks(t *testing.T) {
	const parks = 4
	dir := t.TempDir()
	m := New(Config{Workers: 1, Store: openStore(t, dir), GCMaxAge: -1})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < parks; i++ {
		if _, err := m.Run(tctx, id, 100); err != nil {
			t.Fatal(err)
		}
		res := parkNow(t, m, id)
		if seen[res.Snapshot] {
			t.Fatalf("park %d reused hash %s", i, res.Snapshot)
		}
		seen[res.Snapshot] = true
	}

	before, err := m.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Recipes != parks {
		t.Fatalf("recipes before GC = %d, want %d", before.Recipes, parks)
	}
	res, err := m.GCStore(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedRecipes != parks-1 {
		t.Fatalf("sweep = %+v, want %d recipes reclaimed", res, parks-1)
	}
	after, err := m.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Bytes >= before.Bytes {
		t.Fatalf("store bytes %d -> %d: GC did not reclaim", before.Bytes, after.Bytes)
	}
	if after.GCRuns == 0 || after.GCReclaimedBytes != uint64(res.ReclaimedBytes) {
		t.Fatalf("gc stats = %+v vs sweep %+v", after, res)
	}

	// The manifest-referenced snapshot survived; the session revives.
	st, err := m.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != parks*100 {
		t.Fatalf("revived cycle = %d, want %d", st.Cycle, parks*100)
	}
}

// TestReparkDedupesSections is the storage-efficiency acceptance check:
// a session that runs on between parks shares most of its snapshot (the
// memory images) with the previous park, so the second park must grow the
// store by less than half the snapshot size.
func TestReparkDedupesSections(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer drainNow(t, m)

	id, err := m.Create(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tctx, id, 100); err != nil {
		t.Fatal(err)
	}
	first := parkNow(t, m, id)
	before, _ := m.StoreStats()

	// Advance the machine so the next snapshot differs, then re-park.
	if _, err := m.Run(tctx, id, 100); err != nil {
		t.Fatal(err)
	}
	second := parkNow(t, m, id)
	if second.Snapshot == first.Snapshot {
		t.Fatal("snapshots identical; re-park measures nothing")
	}
	after, _ := m.StoreStats()

	snap, err := m.cfg.Store.Get(second.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	grew := after.Bytes - before.Bytes
	if grew >= int64(len(snap))/2 {
		t.Fatalf("re-park grew the store by %d bytes for a %d-byte snapshot (dedupe < 50%%)",
			grew, len(snap))
	}
	if after.SectionsDeduped == before.SectionsDeduped {
		t.Fatal("no sections deduped on re-park")
	}
}

// TestGCChurn races park/revive/fork against concurrent GC sweeps: with
// the pin discipline in place, no session and no fork may ever observe a
// missing snapshot, whatever interleaving the race detector provokes.
func TestGCChurn(t *testing.T) {
	const (
		sessions   = 4
		iterations = 8
	)
	dir := t.TempDir()
	m := New(Config{
		Workers:     4,
		MaxSessions: 64,
		Store:       openStore(t, dir),
		GCMaxAge:    -1, // every unreferenced snapshot is immediately fair game
	})
	defer drainNow(t, m)

	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() { // the adversary: sweep as aggressively as possible
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := m.GCStore(0); err != nil {
					t.Errorf("GC sweep: %v", err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := m.Create(smallSpec())
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if _, err := m.LoadMicrocode(tctx, id, SpinMicrocode, "start"); err != nil {
				t.Errorf("load: %v", err)
				return
			}
			cycles := uint64(0)
			for j := 0; j < iterations; j++ {
				if _, err := m.Run(tctx, id, 50); err != nil {
					t.Errorf("run %s: %v", id, err)
					return
				}
				cycles += 50
				res := parkNow(t, m, id)
				// Fork from the snapshot we just parked — the read path the
				// pins protect against a concurrent sweep.
				fork, err := m.CreateFrom(res.Snapshot)
				if err != nil {
					t.Errorf("fork of %s: %v (snapshot lost to GC?)", res.Snapshot, err)
					return
				}
				st, err := m.ReadState(tctx, fork)
				if err != nil || st.Cycle != cycles {
					t.Errorf("fork state = %+v, %v (want cycle %d)", st, err, cycles)
					return
				}
				if err := m.Destroy(fork); err != nil {
					t.Errorf("destroy fork: %v", err)
					return
				}
				// Revive the original and keep going.
				if st, err := m.ReadState(tctx, id); err != nil || st.Cycle != cycles {
					t.Errorf("revived state = %+v, %v (want cycle %d)", st, err, cycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	gcWG.Wait()

	// Zero lost sessions: every original is still listed and readable.
	infos := m.Sessions()
	if len(infos) != sessions {
		t.Fatalf("sessions after churn = %d, want %d", len(infos), sessions)
	}
	for _, in := range infos {
		if st, err := m.ReadState(tctx, in.ID); err != nil || st.Cycle != iterations*50 {
			t.Fatalf("session %s after churn = %+v, %v", in.ID, st, err)
		}
	}
}

// TestAdoptVersion1Store is the upgrade story for snapshot format 2: a
// store whose parks an older build wrote as format version 1 keeps its
// sessions. A fresh Manager adopts the version-1 park, revives it with
// its stack intact, forks it and parks it again as version 2 under a new
// hash; a sweep then reclaims the version-1 recipe. Older builds also
// wrote a "MetricsConfig" key into every Spec sidecar and manifest entry,
// which must not stop any of that.
func TestAdoptVersion1Store(t *testing.T) {
	src := New(Config{Workers: 1})
	id, err := src.Create(Spec{Language: "mesa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.BootSource(tctx, id, "return 6*7;"); err != nil {
		t.Fatal(err)
	}
	if r, err := src.Run(tctx, id, 1_000_000); err != nil || !r.Halted {
		t.Fatalf("run = %+v, %v", r, err)
	}
	snap, err := src.Snapshot(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	before, err := src.ReadState(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	drainNow(t, src)

	spec := Spec{Language: "Mesa"}
	sys, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := statetest.VersionOne(snap, sys.Machine.Mem().Config().StorageWords, memory.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, spec string }{
		{"spec", string(specJSON)},
		{"MetricsConfig", `{"Language":"Mesa","Machine":{"Memory":{"CacheWords":0,"CacheWays":0,"StorageWords":0},` +
			`"Options":{"NoBypass":false,"DelayedBranch":false,"ExplicitNotify":false,"FixedWaitMemory":false},` +
			`"FaultTask":0,"Reference":false,"Translation":{"Enable":false}},"Metrics":false,` +
			`"MetricsConfig":{"MaxSpans":0,"TimelineInterval":0,"MaxSlices":0},"Profile":false,"Devices":null,"Webhook":""}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// What the older build left behind: the version-1 snapshot,
			// its Spec sidecar and the manifest entry, written in
			// persist's order.
			dir := t.TempDir()
			old := openStore(t, dir)
			hash := store.Hash(v1)
			if _, err := old.PutSnapshot(v1); err != nil {
				t.Fatal(err)
			}
			if err := old.PutMeta(hash, []byte(tc.spec)); err != nil {
				t.Fatal(err)
			}
			if err := old.SaveSession(store.Entry{ID: id, Seq: 1, Spec: json.RawMessage(tc.spec), Hash: hash, Cycle: before.Cycle, ParkedAt: time.Now()}); err != nil {
				t.Fatal(err)
			}

			m := New(Config{Workers: 1, Store: openStore(t, dir), GCMaxAge: -1})
			defer drainNow(t, m)
			if infos := m.Sessions(); len(infos) != 1 || !infos[0].Parked || infos[0].Snapshot != hash {
				t.Fatalf("adopted sessions = %+v, want %s parked as %s", infos, id, hash)
			}
			st, err := m.ReadState(tctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Parked || !st.Halted || st.Cycle != before.Cycle || !slices.Equal(st.Stack, []uint16{42}) {
				t.Fatalf("revived state = %+v, want the parked machine at cycle %d with stack [42]", st, before.Cycle)
			}
			fork, err := m.CreateFrom(hash)
			if err != nil {
				t.Fatal(err)
			}
			if st, err := m.ReadState(tctx, fork); err != nil || st.Cycle != before.Cycle || !slices.Equal(st.Stack, []uint16{42}) {
				t.Fatalf("fork of the version-1 park = %+v, %v, want cycle %d with stack [42]", st, err, before.Cycle)
			}

			res := parkNow(t, m, id)
			if res.Snapshot == hash {
				t.Fatal("the re-park kept the version-1 hash")
			}
			blob, err := m.cfg.Store.Get(res.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			if string(blob[:4]) != "DSNP" || blob[4] != 2 || blob[5] != 0 {
				t.Fatalf("re-park header = % x, want DSNP version 2", blob[:6])
			}
			sweep, err := m.GCStore(0)
			if err != nil {
				t.Fatal(err)
			}
			if sweep.ReclaimedRecipes != 1 || m.cfg.Store.Has(hash) {
				t.Fatalf("sweep = %+v, version-1 recipe still present: %v", sweep, m.cfg.Store.Has(hash))
			}
			if st, err := m.ReadState(tctx, id); err != nil || !slices.Equal(st.Stack, []uint16{42}) {
				t.Fatalf("state after the sweep = %+v, %v", st, err)
			}
		})
	}
}

// TestAdoptUnboundedPulseLatencies is the upgrade story for the pulse's
// latency bound: a build without it recorded one latency per service, so
// a session it parked after a long run (a pulse at the catalog's default
// period passes 4096 services after about 4.1M cycles) holds more than
// this build keeps. A fresh Manager adopts that park, revives it keeping
// the first 4096, runs it on, and parks it again under a new hash.
func TestAdoptUnboundedPulseLatencies(t *testing.T) {
	const (
		kept  = 4096 // the latencies a pulse keeps (device.maxLatencies)
		older = 5000 // the latencies the older build parked
	)
	spec := Spec{Devices: []DeviceSpec{{Name: "pulse", Rate: 50, Start: "pulse"}}}
	src := New(Config{Workers: 1})
	id, err := src.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.LoadMicrocode(tctx, id, "emu: goto emu\npulse: block goto pulse\n", "emu"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Run(tctx, id, 10_000); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot(tctx, id)
	if err != nil {
		t.Fatal(err)
	}
	drainNow(t, src)

	// The pulse is the machine's only device, so section DEVS holds the
	// device count and its task, the pulse's wake flag, raise and
	// next-wakeup cycles and started flag (20 bytes in all), then its
	// latencies: a uint32 count and that many uint64s. Lengthen the list
	// to what the older build would have parked.
	le := binary.LittleEndian
	latencies := func(doc []byte) []byte {
		t.Helper()
		d, err := state.Split(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Sections {
			if s.Tag == "DEVS" && len(s.Body) >= 24 && len(s.Body) == 24+8*int(le.Uint32(s.Body[20:])) {
				return s.Body[20:]
			}
		}
		t.Fatal("no DEVS section holding one pulse")
		return nil
	}
	lats := latencies(snap)
	n := int(le.Uint32(lats))
	if n == 0 {
		t.Fatal("the pulse recorded no latencies")
	}
	d, err := state.Split(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range d.Sections {
		if s.Tag == "DEVS" {
			body := le.AppendUint32(bytes.Clone(s.Body[:20]), older)
			body = append(body, lats[4:]...)
			for range older - n {
				body = le.AppendUint64(body, 1)
			}
			d.Sections[i].Body = body
		}
	}
	old := d.Join()

	dir := t.TempDir()
	sdb := openStore(t, dir)
	hash := store.Hash(old)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.PutSnapshot(old); err != nil {
		t.Fatal(err)
	}
	if err := sdb.PutMeta(hash, specJSON); err != nil {
		t.Fatal(err)
	}
	if err := sdb.SaveSession(store.Entry{ID: id, Seq: 1, Spec: specJSON, Hash: hash, Cycle: 10_000, ParkedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}

	m := New(Config{Workers: 1, Store: openStore(t, dir), GCMaxAge: -1})
	defer drainNow(t, m)
	if r, err := m.Run(tctx, id, 10_000); err != nil || r.Cycle != 20_000 {
		t.Fatalf("run after revival = %+v, %v, want cycle 20000", r, err)
	}
	res := parkNow(t, m, id)
	if res.Snapshot == hash {
		t.Fatal("the re-park kept the older build's hash")
	}
	blob, err := m.cfg.Store.Get(res.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	got := latencies(blob)
	if k := le.Uint32(got); k != kept || !bytes.Equal(got[4:4+8*n], lats[4:]) {
		t.Errorf("re-park holds %d latencies, want the first %d of the %d parked", k, kept, older)
	}
}

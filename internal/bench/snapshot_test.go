package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"dorado/internal/core"
	"dorado/internal/memory"
	"dorado/internal/state/statetest"
)

// This file is the workload-level checkpointing suite: every §7 workload
// family must be resumable from a snapshot at any cycle with no observable
// difference, on both interpreter paths. diff_test.go proves the two paths
// compute the same machine; these tests prove a machine is the same machine
// after a save/restore round trip through the serialized format.

// snapshotPaths are the execution paths the checkpointing suite covers.
// Snapshots are path-independent (derived caches — predecode, superblocks,
// hotness counters — are never serialized), so every path must produce and
// accept the same bytes.
var snapshotPaths = []struct {
	name string
	cfg  core.Config
}{
	{"predecoded", core.Config{}},
	{"reference", core.Config{Reference: true}},
	{"translated", core.Config{Translation: core.Translation{Enable: true}}},
}

// TestSplitRunEquivalence: running N cycles straight must equal running k
// cycles, snapshotting, restoring into a freshly built machine, and running
// the remaining N−k — for every workload, several split points, every path.
func TestSplitRunEquivalence(t *testing.T) {
	const total = 8000
	for _, w := range Workloads() {
		for _, p := range snapshotPaths {
			t.Run(fmt.Sprintf("%s/%s", w.ID, p.name), func(t *testing.T) {
				cfg := p.cfg
				straight, err := w.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				straight.RunCycles(total)
				want := straight.Snapshot()

				for _, k := range []uint64{1, 137, 4000, 7999} {
					first, err := w.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					first.RunCycles(k)
					mid := first.Snapshot()

					second, err := w.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := second.Restore(mid); err != nil {
						t.Fatalf("k=%d: restore: %v", k, err)
					}
					second.RunCycles(total - k)
					if got := second.Snapshot(); !bytes.Equal(got, want) {
						t.Errorf("k=%d: split run diverged from straight run", k)
					}
				}
			})
		}
	}
}

// goldenHashes pins the exact serialized machine state of every workload
// after 5000 predecoded cycles. These change whenever the snapshot format,
// the simulated machine's behavior, or a workload's setup changes — each of
// which should be a deliberate, reviewed event. On mismatch the test prints
// the current hash; paste it here once the change is understood.
var goldenHashes = map[string]string{
	"emulator":  "36d94335a971db8847b0f74f5b91de26a1278d0ddab6d3e91e4eb3c35176341c",
	"disk":      "4362419842eda6dba88c38e490afbe59d77ea0abd7b194c266450a71983bff42",
	"fastio":    "6f2cf4db6d8cb0f3019c21be96d1a747eafb5a7a24f0f2108fb6cfc2734fd1f6",
	"slowio":    "50429e97135d1f5d17cd0b3cea2607fa8d07682474b502aa823ff53f0998a09e",
	"bitblt":    "0f5c1fc13cc991861cef2536b35d6376aa31084997dad652403103c4f7d38428",
	"mesacalls": "201d0f922a08cc90f73253f41e3939a495749298ec54917aea7485198ea3c3e3",
}

// goldenV1 are the same states' hashes in format version 1, which coded
// the storage image densely; they are the values goldenHashes held
// before version 2. Each workload's snapshot, rendered as version 1 by
// statetest.VersionOne, must still hash to them: the encoding changed,
// the machine state it carries did not.
var goldenV1 = map[string]string{
	"emulator":  "73896bd159681df8a3bc19b861a4febb7830f0f1300e4148cf273652ac4faf69",
	"disk":      "ac7c024c2f51729c70860c8559adc11b66dc6e7bdf8a4cee14714ad744cb437a",
	"fastio":    "7709b2c790ad111994dbb2248becc94c1f309e6c7e589b17e9ccc68f798e732c",
	"slowio":    "a42382ef700d07588ebb80f2771cb77edb2df26efdaa8566a9b79519da9f34a2",
	"bitblt":    "cf3cdafc2bc2d16870a9570cd7883a3292be881f6988442339ae4d3fd8777410",
	"mesacalls": "fe841f593fbe901d5d3340f81b56024caade9bd81953b0f4058146f902ac05a4",
}

// TestGoldenSnapshots checks the content hash of each workload's snapshot
// at a fixed cycle count — on every execution path, which must all hash the
// same — and that restoring that snapshot re-serializes byte-identically
// (the round-trip property at workload scale). The snapshot's version-1
// rendering must hash to goldenV1 and restore to the same machine.
func TestGoldenSnapshots(t *testing.T) {
	const cycles = 5000
	for _, w := range Workloads() {
		t.Run(w.ID, func(t *testing.T) {
			want, ok := goldenHashes[w.ID]
			if !ok || want == "" {
				t.Fatalf("no golden hash for %q", w.ID)
			}
			for _, p := range snapshotPaths {
				m, err := w.Build(p.cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.RunCycles(cycles)
				snap := m.Snapshot()
				if got := hash(snap); got != want {
					t.Errorf("%s: snapshot hash changed after %d cycles:\n got %s\nwant %s\n"+
						"(expected only when the state format or machine behavior deliberately changes)",
						p.name, cycles, got, want)
				}

				fresh, err := w.Build(p.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fresh.Snapshot(), snap) {
					t.Errorf("%s: restore → snapshot is not byte-identical", p.name)
				}

				v1, err := statetest.VersionOne(snap, m.Mem().Config().StorageWords, memory.PageWords)
				if err != nil {
					t.Fatal(err)
				}
				if got := hash(v1); got != goldenV1[w.ID] {
					t.Errorf("%s: version-1 rendering hashes to %s, want %s", p.name, got, goldenV1[w.ID])
				}
				old, err := w.Build(p.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := old.Restore(v1); err != nil {
					t.Fatalf("%s: version-1 restore: %v", p.name, err)
				}
				if !bytes.Equal(old.Snapshot(), snap) {
					t.Errorf("%s: the version-1 rendering does not restore to the version-2 snapshot", p.name)
				}
			}
		})
	}
}

// hash is the hex SHA-256 of a snapshot document.
func hash(doc []byte) string {
	h := sha256.Sum256(doc)
	return hex.EncodeToString(h[:])
}

// TestSnapshotAllocation guards the snapshot encoder's buffer. Snapshot
// sizes it from the microstore, the cache and the storage pages that hold
// words of their own, so encoding any workload's machine should allocate
// little more than the document itself: the microstore's 32 KiB is most
// of a document with a few pages, and disk and slow I/O, run until they
// hold 256 pages, carry 129 KiB of storage besides. A buffer sized for a
// few pages and grown by append cost 4.4 times the document on disk.
func TestSnapshotAllocation(t *testing.T) {
	for _, w := range Workloads() {
		m, err := w.Build(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m.RunCycles(2_000_000)
		if pages := m.Mem().OwnedPages(); (w.ID == "disk" || w.ID == "slowio") && pages != 256 {
			t.Fatalf("%s holds %d storage pages, want 256", w.ID, pages)
		}
		size := len(m.Snapshot())
		const reps = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			size = len(m.Snapshot())
		}
		runtime.ReadMemStats(&after)
		perSnap := float64(after.TotalAlloc-before.TotalAlloc) / reps
		ratio := perSnap / float64(size)
		t.Logf("%s: Snapshot allocates %.0f bytes for a %d-byte document (%.2fx)", w.ID, perSnap, size, ratio)
		if ratio > 1.25 {
			t.Errorf("%s: Snapshot allocates %.2fx its %d-byte document, want at most 1.25x", w.ID, ratio, size)
		}
	}
}

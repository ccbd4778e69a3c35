package store_test

import (
	"encoding/binary"
	"encoding/json"
	"testing"

	"dorado"
	"dorado/internal/state"
	"dorado/internal/store"
)

// benchProgram is a Mesa program shaped like the benchmark's lifecycle
// sessions: a recursive kernel, an arithmetic loop and a bitwise loop,
// called forever.
const benchProgram = `func rec(n) { if n < 2 { return n + 3; } return rec(n - 1) + rec(n - 2); }
func mix(a, b) { var i = 0; while i < 9 { a = a * 7 + b; b = b ^ (a << 3); i = i + 1; } return a - b; }
func bits(x) { var c = 0; var i = 0; while i < 9 { c = c + (x & 91); x = (x ^ (x << 5)) | 1234; i = i + 1; } return c; }
var acc = 77;
global 1 = 5;
while 1 {
    acc = acc + rec(7);
    acc = mix(acc, 999);
    acc = acc ^ bits(acc);
    global 2 = acc;
}
`

// mesaSnapshot is the snapshot of a Mesa session booted with
// benchProgram and run for 200,000 cycles: about 48 KiB in twelve
// sections, of which the microstore (UIMS) and the storage pages (MDAT)
// reach 4 KiB.
func mesaSnapshot(tb testing.TB) []byte {
	tb.Helper()
	sys, err := dorado.New(dorado.WithLanguage(dorado.Mesa))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.BootSource(benchProgram); err != nil {
		tb.Fatal(err)
	}
	sys.Run(200_000)
	return sys.Machine.Snapshot()
}

// sectionAt returns the offset in snap of the body of the section tagged
// tag (Split's bodies alias the document).
func sectionAt(tb testing.TB, snap []byte, tag string) int {
	tb.Helper()
	doc, err := state.Split(snap)
	if err != nil {
		tb.Fatal(err)
	}
	for _, sec := range doc.Sections {
		if sec.Tag == tag {
			return cap(snap) - cap(sec.Body)
		}
	}
	tb.Fatalf("no section %s", tag)
	return 0
}

// changed are the sections that differ between any two parks of Mesa
// sessions, whether of two sessions or of one session 100 cycles apart.
var changed = []string{"CTRL", "DATA", "STAT", "MEMS", "MCCH", "MDAT", "IFUS"}

// BenchmarkPutSnapshot times a park's store write of a fresh Mesa
// snapshot, as a park after earlier ones makes it: the microstore and the
// small configuration sections are already stored, and the seven
// sections that change between parks are new. Each iteration stamps its
// number into those seven bodies, so every put stores sections the store
// does not hold; the stamp and the whole-document hash, which a park
// computes before the put, are not timed. A sweep every 256 puts, also
// untimed, keeps the directory small. Run it with TMPDIR on a
// memory-backed filesystem to time the program rather than the disk.
func BenchmarkPutSnapshot(b *testing.B) {
	snap := mesaSnapshot(b)
	var at []int
	for _, tag := range changed {
		at = append(at, sectionAt(b, snap, tag))
	}
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	base, err := s.PutSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SaveSession(store.Entry{ID: "s1", Seq: 1, Spec: json.RawMessage(`{}`), Hash: base.Hash}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%256 == 255 {
			if _, err := s.Sweep(store.GCPolicy{}); err != nil {
				b.Fatal(err)
			}
		}
		for _, off := range at {
			binary.LittleEndian.PutUint64(snap[off:], uint64(i)+1)
		}
		hash := store.Hash(snap)
		b.StartTimer()
		st, err := s.PutSnapshotHashed(hash, snap)
		if err != nil {
			b.Fatal(err)
		}
		if st.NewBytes == 0 {
			b.Fatal("a fresh snapshot wrote nothing")
		}
	}
}

// BenchmarkGet times a revive's store read of a stored Mesa snapshot:
// reassembly and the whole-document hash check.
func BenchmarkGet(b *testing.B) {
	snap := mesaSnapshot(b)
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	st, err := s.PutSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(st.Hash); err != nil {
			b.Fatal(err)
		}
	}
}

package memory

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"dorado/internal/state"
)

// TestMain runs the suite, then fails it if anything wrote the zero page
// every system's unwritten storage reads: a stray write there would show
// up in every machine in the process.
func TestMain(m *testing.M) {
	code := m.Run()
	if zeroPage != ([PageWords]uint16{}) {
		fmt.Fprintln(os.Stderr, "memory: the shared zero page was written")
		code = 1
	}
	os.Exit(code)
}

// flat returns s's storage as one run of words.
func flat(s *System) []uint16 {
	var vs []uint16
	for _, p := range s.pages {
		vs = append(vs, p[:]...)
	}
	return vs[:s.cfg.StorageWords]
}

// snapshot encodes s's state.
func snapshot(s *System) []byte {
	c := state.Encode(0)
	s.State(c)
	return c.Bytes()
}

// restore decodes doc into s.
func restore(t *testing.T, s *System, doc []byte) {
	t.Helper()
	c, err := state.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	s.State(c)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}

// storageSection returns the body of doc's storage section.
func storageSection(t *testing.T, doc []byte) []byte {
	t.Helper()
	d, err := state.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Sections {
		if s.Tag == sectMemStorage {
			return s.Body
		}
	}
	t.Fatal("no storage section")
	return nil
}

// TestPagesOwnedOnFirstStore: a fresh system owns no storage page and
// reads zero everywhere; each of Poke, a processor store and a fast-I/O
// block gives exactly the page it reaches words of its own.
func TestPagesOwnedOnFirstStore(t *testing.T) {
	s := newSys(t, Config{})
	if n := s.OwnedPages(); n != 0 {
		t.Fatalf("a fresh system owns %d pages", n)
	}
	if !slices.Equal(flat(s), make([]uint16, s.cfg.StorageWords)) {
		t.Fatal("a fresh system's storage is not all zero")
	}
	s.Poke(3*PageWords+1, 5)
	if !startWrite(s, 0, 7*PageWords+255, 6, 0) {
		t.Fatal("store refused")
	}
	s.FastWrite(9*PageWords+16, [LineWords]uint16{1: 7}, 100)
	s.Poke(3*PageWords+2, 8) // a page already owned
	if n := s.OwnedPages(); n != 3 {
		t.Fatalf("three pages stored to, %d owned", n)
	}
	for va, want := range map[uint32]uint16{3*PageWords + 1: 5, 3*PageWords + 2: 8, 7*PageWords + 255: 6, 9*PageWords + 17: 7, 8 * PageWords: 0} {
		if got := s.Peek(va); got != want {
			t.Errorf("Peek(%#x) = %d, want %d", va, got, want)
		}
	}
}

// TestPagesCanonicalEncoding: a page written nonzero and then back to
// zero, by Poke, by a processor store or by a fast-I/O block of zeros,
// holds words of its own that are all zero; the snapshot's storage must
// be byte-equal to a fresh system's, and the whole snapshot to that of a
// twin that made the same references storing zeros only.
func TestPagesCanonicalEncoding(t *testing.T) {
	const va = 5*PageWords + 40
	for _, c := range []struct {
		name  string
		store func(s *System, v uint16, now uint64)
	}{
		{"Poke", func(s *System, v uint16, _ uint64) { s.Poke(va, v) }},
		{"Write", func(s *System, v uint16, now uint64) {
			if !startWrite(s, 2, va, v, now) {
				t.Fatal("store refused")
			}
		}},
		{"FastWrite", func(s *System, v uint16, now uint64) {
			if !s.FastWrite(va, [LineWords]uint16{va % LineWords: v}, now) {
				t.Fatal("fast write refused")
			}
		}},
	} {
		s, twin := newSys(t, Config{}), newSys(t, Config{})
		c.store(s, 0x1234, 0)
		c.store(twin, 0, 0)
		if s.OwnedPages() != 1 || s.Peek(va) != 0x1234 {
			t.Fatalf("%s: the first store did not land (%d pages owned)", c.name, s.OwnedPages())
		}
		c.store(s, 0, 1000)
		c.store(twin, 0, 1000)
		if s.OwnedPages() != 1 {
			t.Fatalf("%s: %d pages owned, want 1", c.name, s.OwnedPages())
		}
		snap := snapshot(s)
		if fresh := snapshot(newSys(t, Config{})); !bytes.Equal(storageSection(t, snap), storageSection(t, fresh)) {
			t.Errorf("%s: a page back at zero is encoded: storage section % x, fresh % x",
				c.name, storageSection(t, snap), storageSection(t, fresh))
		}
		if !bytes.Equal(snap, snapshot(twin)) {
			t.Errorf("%s: the snapshot differs from the twin's that stored only zeros", c.name)
		}
	}
}

// TestShortLastPage: a storage size that ends mid-page (16 pages and 16
// words) uses only the start of its last page. The last word and the last fast-I/O
// block read and write, a reference past the end wraps and counts one map
// fault (a block past the end, one per word), and the storage round-trips
// through a snapshot, its last page coded short.
func TestShortLastPage(t *testing.T) {
	const words = 16*PageWords + LineWords
	s := newSys(t, Config{StorageWords: words})
	if n := len(s.pages); n != 17 {
		t.Fatalf("%d pages, want 17", n)
	}
	s.Poke(0, 1)
	s.Poke(words-1, 0xABCD)
	s.Poke(2*PageWords, 0x1111)
	block := [LineWords]uint16{0: 1, 14: 2}
	if !s.FastWrite(words-LineWords, block, 0) {
		t.Fatal("fast write refused")
	}
	if got, ok := s.FastRead(words-LineWords, 100); !ok || got != block {
		t.Fatalf("last block read back %v (%v), want %v", got, ok, block)
	}
	s.Poke(words-1, 0xABCD) // the block wrote over it
	if st := s.Stats(); st.MapFaults != 0 {
		t.Fatalf("%d map faults inside storage", st.MapFaults)
	}

	if got := s.Peek(words + 2*PageWords); got != 0x1111 {
		t.Errorf("Peek past the end read %#x, want the wrapped word %#x", got, 0x1111)
	}
	if !startWrite(s, 0, 2*words-1, 0xABCE, 200) {
		t.Fatal("store refused")
	}
	if got := s.Peek(words - 1); got != 0xABCE {
		t.Errorf("a store past the end wrapped to %#x, want %#x", got, 0xABCE)
	}
	if st := s.Stats(); st.MapFaults != 2 {
		t.Errorf("two references past the end, %d map faults", st.MapFaults)
	}
	if got, ok := s.FastRead(words, 300); !ok || got != [LineWords]uint16{0: 1} {
		t.Errorf("the block past the end read %v (%v), want storage's first block", got, ok)
	}
	if st := s.Stats(); st.MapFaults != 2+LineWords {
		t.Errorf("a block past the end counted %d map faults, want %d", st.MapFaults-2, LineWords)
	}

	snap := snapshot(s)
	body := storageSection(t, snap)
	if want := 4 + 2*(4+2*PageWords) + 4 + 2*LineWords; len(body) != want {
		t.Errorf("storage section of %d bytes, want %d: pages 0 and 2 whole, page 16 short", len(body), want)
	}
	back := newSys(t, Config{StorageWords: words})
	restore(t, back, snap)
	if !slices.Equal(flat(back), flat(s)) {
		t.Fatal("storage did not round-trip")
	}
	if !bytes.Equal(snapshot(back), snap) {
		t.Fatal("restore → snapshot is not byte-identical")
	}
}

// TestRestoreOwnsOnlyListedPages: a restore onto a fresh system gives
// words only to the pages the snapshot lists and clears nothing; onto a
// system that holds other pages, it clears those and keeps them.
func TestRestoreOwnsOnlyListedPages(t *testing.T) {
	src := newSys(t, Config{})
	src.Poke(10, 1)
	src.Poke(300*PageWords+7, 2)
	src.Poke(PageWords, 3)
	src.Poke(PageWords, 0) // owned, all zero: not listed
	snap := snapshot(src)

	fresh := newSys(t, Config{})
	restore(t, fresh, snap)
	if n := fresh.OwnedPages(); n != 2 {
		t.Errorf("a restore onto a fresh system owns %d pages, want the 2 listed", n)
	}

	used := newSys(t, Config{})
	used.Poke(10, 9)
	used.Poke(4000*PageWords, 9)
	restore(t, used, snap)
	if used.Peek(4000*PageWords) != 0 || used.Peek(10) != 1 || used.Peek(300*PageWords+7) != 2 {
		t.Error("a restore onto a used system left its words")
	}
	if !slices.Equal(flat(used), flat(src)) || !bytes.Equal(snapshot(used), snap) {
		t.Error("a restore onto a used system did not restore its storage")
	}
}

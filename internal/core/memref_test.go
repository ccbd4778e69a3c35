package core

import (
	"bytes"
	"testing"

	"dorado/internal/masm"
)

// sameWordPrograms start a memory reference in a word whose FF function
// would change the reference's line or address after the Hold phase
// admitted it (§5.7): a flush of the dirty line the fetch hits, and B-bus
// loads of MEMBASE or a base register that would move a hit to a line
// that misses while a store's fill holds the storage pipe. The admitted
// reference is the one committed: a flushed line is fetched again behind
// the writeback, and the new base applies from the next reference.
var sameWordPrograms = []struct {
	name, src string
	check     func(t *testing.T, m *Machine)
}{
	{"flush", `
start:  const=0x0040 alu=b lc=rm r=1
        const=0x00A5 alu=b lc=t
        a=store r=1 b=t         ; miss: fills the line and dirties it
        a=fetch r=1 ff=flush    ; admitted as a hit; the flush writes it back
        alu=a a=md lc=t         ; holds until the refetch delivers
        halt
`, func(t *testing.T, m *Machine) {
		if got := m.T(0); got != 0x00A5 {
			t.Errorf("T = %#04x, want the stored 0x00a5", got)
		}
		// The flush's writeback waits 7 cycles for the store's fill to
		// free the pipe, the refetch starts when the writeback frees it (8
		// cycles) and delivers a miss latency (26) later: the MD use
		// holds 40.
		if st := m.Stats(); st.HoldMD != 7+8+26-1 || st.HoldMem != 0 {
			t.Errorf("holds: MD %d, memory %d; want 40 and 0", st.HoldMD, st.HoldMem)
		}
		if st := m.Mem().Stats(); st.Misses != 2 || st.Hits != 0 || st.Writebacks != 1 || st.StorageOps != 3 {
			t.Errorf("memory stats %+v: want 2 misses (store, refetch), 1 writeback, 3 storage ops", st)
		}
	}},
	{"putmembase", `
start:  const=0x0040 alu=b lc=rm r=1
        const=0x0080 alu=b lc=rm r=2
        a=fetch r=1             ; brings 0x40's line in
        alu=a a=md lc=rm r=3
        const=3 alu=b lc=t
        a=store r=2 b=t         ; miss: the pipe is busy for 8 cycles
        a=fetch r=1 ff=putmembase b=t
        alu=a a=md lc=t         ; the word at base 0 + 0x40
        a=fetch r=1             ; MEMBASE 3 applies from here
        alu=a a=md lc=rm r=4
        halt
`, sameWordBaseCheck},
	{"putbaselo", `
start:  const=0x0040 alu=b lc=rm r=1
        const=0x0080 alu=b lc=rm r=2
        a=fetch r=1             ; brings 0x40's line in
        alu=a a=md lc=rm r=3
        const=0x3000 alu=b lc=t
        a=store r=2 b=t         ; miss: the pipe is busy for 8 cycles
        a=fetch r=1 ff=putbaselo b=t
        alu=a a=md lc=t         ; the word at the old base 0 + 0x40
        a=fetch r=1             ; base 0 = 0x3000 applies from here
        alu=a a=md lc=rm r=4
        halt
`, sameWordBaseCheck},
}

// sameWordBaseCheck: the fetch that loaded a base took its word from the
// pre-FF address, and the next fetch used the new base.
func sameWordBaseCheck(t *testing.T, m *Machine) {
	t.Helper()
	if got := m.T(0); got != 0xA040 {
		t.Errorf("T = %#04x, want 0xa040 from the pre-FF address 0x40", got)
	}
	if got := m.RM(4); got != 0x3333 {
		t.Errorf("RM[4] = %#04x, want 0x3333 from 0x3040", got)
	}
	// The word loading the base hits without holding; the next fetch,
	// three cycles later, misses on the new base and holds until the
	// store's fill frees the pipe, 8 cycles after the store.
	if st := m.Stats(); st.HoldMem != 4 {
		t.Errorf("held %d cycles on memory, want the next fetch's 4", st.HoldMem)
	}
}

// buildSameWord loads one of sameWordPrograms with base register 3 at
// 0x3000 and known words at 0x40 and 0x3040.
func buildSameWord(t *testing.T, src string) func(cfg Config) (*Machine, error) {
	p, err := masm.AssembleText(src)
	if err != nil {
		t.Fatal(err)
	}
	return func(cfg Config) (*Machine, error) {
		cfg.Memory = smallMem
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		m.Load(&p.Words)
		m.Mem().SetBase(3, 0x3000)
		m.Mem().Poke(0x40, 0xA040)
		m.Mem().Poke(0x3040, 0x3333)
		m.Start(p.MustEntry("start"))
		return m, nil
	}
}

// TestSameWordReference runs each program traced on the three paths in
// lockstep (every cycle, snapshot and register compared), then bare, where
// the held-run shortcut acts, and requires equal Stats, memory Stats and
// snapshots; every path must honour the reference the Hold phase admitted.
func TestSameWordReference(t *testing.T) {
	for _, c := range sameWordPrograms {
		t.Run(c.name, func(t *testing.T) {
			build := buildSameWord(t, c.src)
			diffTranslated(t, c.name, 200, 200, build)
			var base *Machine
			for _, cfg := range allPaths {
				m, err := build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !m.Run(200) {
					t.Fatalf("%s: no halt in 200 cycles", pathName(m))
				}
				c.check(t, m)
				if base == nil {
					base = m
					continue
				}
				if base.Stats() != m.Stats() || base.Mem().Stats() != m.Mem().Stats() {
					t.Errorf("%s: Stats %+v, memory %+v; reference %+v, %+v",
						pathName(m), m.Stats(), m.Mem().Stats(), base.Stats(), base.Mem().Stats())
				}
				if !bytes.Equal(base.Snapshot(), m.Snapshot()) {
					t.Errorf("%s: snapshot differs from the reference's", pathName(m))
				}
			}
		})
	}
}

package memory

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"dorado/internal/state"
)

// TestIdentityMapFastPath runs one seeded stream of processor, fast-I/O
// and functional references on two systems: one with an empty page map,
// which takes the identity fast path, and one whose map holds an identity
// override on a page the stream never touches, which takes the map
// lookup. Everything observable must agree: results, storage, Stats, and
// the snapshot once the first system carries the same override.
func TestIdentityMapFastPath(t *testing.T) {
	const storage = 1 << 14
	cfg := Config{StorageWords: storage, CacheWords: 512}
	plain, mapped := newSys(t, cfg), newSys(t, cfg)
	const untouched = VAMask / PageWords // the last virtual page
	mapped.MapSet(untouched, untouched)

	rng := rand.New(rand.NewPCG(19, 0x6A9))
	va := func() uint32 {
		if rng.IntN(4) == 0 {
			return uint32(storage + rng.IntN(4*storage)) // past the end: wraps
		}
		return uint32(rng.IntN(storage))
	}
	var now uint64
	for i := 0; i < 200_000; i++ {
		now += uint64(rng.IntN(4))
		task, a := rng.IntN(NumTasks), va()
		switch rng.IntN(8) {
		case 0, 1, 2, 3:
			store, v := rng.IntN(2) == 1, uint16(rng.Uint32())
			pr, prel, pok := plain.Admit(task, a, store, now)
			mr, mrel, mok := mapped.Admit(task, a, store, now)
			if pok != mok || prel != mrel {
				t.Fatalf("step %d: Admit(%d, %#x, %v) = %v/%d, mapped %v/%d", i, task, a, store, pok, prel, mok, mrel)
			}
			switch {
			case !pok:
			case store:
				plain.Write(task, pr, v, now)
				mapped.Write(task, mr, v, now)
			default:
				plain.Read(task, pr, now)
				mapped.Read(task, mr, now)
			}
		case 4:
			pb, pok := plain.FastRead(a, now)
			mb, mok := mapped.FastRead(a, now)
			if pb != mb || pok != mok {
				t.Fatalf("step %d: FastRead(%#x) differs", i, a)
			}
		case 5:
			var b [LineWords]uint16
			for j := range b {
				b[j] = uint16(rng.Uint32())
			}
			if p, m := plain.FastWrite(a, b, now), mapped.FastWrite(a, b, now); p != m {
				t.Fatalf("step %d: FastWrite(%#x) = %v, mapped %v", i, a, p, m)
			}
		case 6:
			if p, m := plain.Peek(a), mapped.Peek(a); p != m {
				t.Fatalf("step %d: Peek(%#x) = %#04x, mapped %#04x", i, a, p, m)
			}
			plain.Flush(a, now)
			mapped.Flush(a, now)
		case 7:
			if plain.MDReady(task, now) != mapped.MDReady(task, now) {
				t.Fatalf("step %d: MDReady(%d) differs", i, task)
			}
			if plain.MDReady(task, now) {
				if p, m := plain.MD(task, now), mapped.MD(task, now); p != m {
					t.Fatalf("step %d: MD(%d) = %#04x, mapped %#04x", i, task, p, m)
				}
			}
		}
		if plain.Stats() != mapped.Stats() {
			t.Fatalf("step %d: Stats %+v, mapped %+v", i, plain.Stats(), mapped.Stats())
		}
	}
	st := plain.Stats()
	if st.MapFaults == 0 || st.Hits == 0 || st.Misses == 0 || st.Writebacks == 0 || st.FastReads == 0 || st.FastWrites == 0 {
		t.Fatalf("stream too narrow: %+v", st)
	}
	if !slices.Equal(flat(plain), flat(mapped)) {
		t.Fatal("storage differs")
	}
	if f := mapped.MapFlagsOf(untouched); f != (MapFlags{}) {
		t.Fatalf("the stream touched the override page: %+v", f)
	}
	plain.MapSet(untouched, untouched)
	ep, em := state.Encode(0), state.Encode(0)
	plain.State(ep)
	mapped.State(em)
	if !bytes.Equal(ep.Bytes(), em.Bytes()) {
		t.Fatal("snapshots differ")
	}
}

// TestFirstMapFlagsLeaveFastPath: the first SetMapFlags on a system with
// an empty map ends the identity fast path, so a vacant page faults on
// the very next reference.
func TestFirstMapFlagsLeaveFastPath(t *testing.T) {
	s := newSys(t, Config{})
	if !startRead(s, 0, 3*PageWords+5, 0) {
		t.Fatal("read rejected")
	}
	s.MD(0, 100)
	if _, ok := s.LastFault(); ok || s.Stats().Faults != 0 {
		t.Fatal("fault with an empty map")
	}
	s.SetMapFlags(3, MapFlags{Vacant: true})
	if !startRead(s, 1, 3*PageWords+7, 200) {
		t.Fatal("read rejected")
	}
	f, ok := s.TakeFault()
	if !ok || f.Kind != FaultVacant || f.VA != 3*PageWords+7 || f.Task != 1 || s.Stats().Faults != 1 {
		t.Fatalf("after SetMapFlags(Vacant): fault %+v %v, %d faults", f, ok, s.Stats().Faults)
	}
}

// TestCacheShiftIndexing: for every geometry newCache accepts, indexing
// by mask and shift picks the set and tag that division does.
func TestCacheShiftIndexing(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0xCA))
	geometries := 0
	for words := LineWords; words <= 1<<16; words += LineWords {
		for ways := 1; ways <= 8; ways++ {
			c, err := newCache(words, ways)
			if err != nil {
				continue
			}
			geometries++
			sets := len(c.lines) / ways
			for i := 0; i < 256; i++ {
				va := rng.Uint32()
				if i < 2 {
					va = uint32(i) * VAMask
				}
				s := int(va/LineWords) % sets
				if got := &c.set(va)[0]; got != &c.lines[s*ways] || len(c.set(va)) != ways {
					t.Fatalf("%d words, %d ways: set(%#x) is not set %d", words, ways, va, s)
				}
				if got, want := c.tag(va), va/LineWords/uint32(sets); got != want {
					t.Fatalf("%d words, %d ways: tag(%#x) = %#x, want %#x", words, ways, va, got, want)
				}
			}
		}
	}
	if geometries < 40 {
		t.Fatalf("only %d geometries accepted", geometries)
	}
}

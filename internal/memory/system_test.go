package memory

import (
	"testing"
	"testing/quick"
)

func newSys(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startRead admits a fetch and, if admitted, commits it: the processor's
// hold-phase Admit and its issue-time Read in one call.
func startRead(s *System, task int, va uint32, now uint64) bool {
	r, _, ok := s.Admit(task, va, false, now)
	if ok {
		s.Read(task, r, now)
	}
	return ok
}

// startWrite is startRead for a store of data.
func startWrite(s *System, task int, va uint32, data uint16, now uint64) bool {
	r, _, ok := s.Admit(task, va, true, now)
	if ok {
		s.Write(task, r, data, now)
	}
	return ok
}

func TestHitLatencyTwoCycles(t *testing.T) {
	s := newSys(t, Config{})
	s.Poke(100, 0xBEEF)
	// Warm the line.
	if !startRead(s, 0, 100, 0) {
		t.Fatal("cold read rejected")
	}
	for !s.MDReady(0, 1000) {
		t.Fatal("never ready")
	}
	s.MD(0, 1000)
	// Hit: issued at cycle 2000, ready at 2002, not before.
	if !startRead(s, 0, 100, 2000) {
		t.Fatal("hit read rejected")
	}
	if s.MDReady(0, 2001) {
		t.Error("ready after 1 cycle; hit latency should be 2")
	}
	if !s.MDReady(0, 2002) {
		t.Error("not ready after 2 cycles")
	}
	if got := s.MD(0, 2002); got != 0xBEEF {
		t.Errorf("MD = %#04x, want 0xbeef", got)
	}
}

func TestMissLatency(t *testing.T) {
	s := newSys(t, Config{})
	s.Poke(0x5000, 0x1234)
	if !startRead(s, 3, 0x5000, 10) {
		t.Fatal("miss read rejected with free storage")
	}
	if s.MDReady(3, 10+25) {
		t.Error("ready before miss latency elapsed")
	}
	if !s.MDReady(3, 10+26) {
		t.Error("not ready at miss latency")
	}
	if got := s.MD(3, 36); got != 0x1234 {
		t.Errorf("MD = %#04x", got)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMissHitGapIsOrderOfMagnitude(t *testing.T) {
	// §5.7: best case vs worst case differ by more than an order of
	// magnitude: 2 vs 26.
	if missLatency < 10*hitLatency {
		t.Errorf("miss %d vs hit %d: not an order of magnitude", missLatency, hitLatency)
	}
}

func TestStoragePipeBackpressure(t *testing.T) {
	s := newSys(t, Config{})
	// First miss occupies the storage pipe for one RAM cycle (8 cycles).
	if !startRead(s, 0, 0x1000, 0) {
		t.Fatal("first miss rejected")
	}
	// A second miss (different task, different line) cannot start until
	// cycle 8.
	if startRead(s, 1, 0x2000, 3) {
		t.Error("second miss accepted while storage busy")
	}
	if !startRead(s, 1, 0x2000, 8) {
		t.Error("second miss rejected after storage cycle elapsed")
	}
}

func TestHitUnderMiss(t *testing.T) {
	s := newSys(t, Config{})
	// Warm a line for task 1.
	startRead(s, 1, 64, 0)
	s.MD(1, 100)
	// Task 0 misses at cycle 200 (storage busy until 208).
	if !startRead(s, 0, 0x3000, 200) {
		t.Fatal("miss rejected")
	}
	// Task 1 can still hit in the cache during the miss (the cache is
	// fully segmented, §3).
	if !startRead(s, 1, 64, 201) {
		t.Error("hit under miss rejected")
	}
	if !s.MDReady(1, 203) {
		t.Error("hit under miss not ready at +2")
	}
}

func TestOneOutstandingFetchPerTask(t *testing.T) {
	s := newSys(t, Config{})
	if !startRead(s, 0, 0x1000, 0) {
		t.Fatal("first read rejected")
	}
	// Same task, before data ready: must hold.
	if startRead(s, 0, 0x1010, 5) {
		t.Error("second fetch accepted while first outstanding")
	}
	// After MD is ready the next fetch is fine even without reading MD.
	if !startRead(s, 0, 64, 40) {
		t.Error("fetch after ready rejected")
	}
}

func TestWriteReadBack(t *testing.T) {
	s := newSys(t, Config{})
	if !startWrite(s, 0, 777, 0xCAFE, 0) {
		t.Fatal("write rejected")
	}
	if !startRead(s, 0, 777, 20) {
		t.Fatal("read rejected")
	}
	if got := s.MD(0, 60); got != 0xCAFE {
		t.Errorf("read back %#04x", got)
	}
}

func TestWriteMissAllocates(t *testing.T) {
	s := newSys(t, Config{})
	if !startWrite(s, 0, 0x4000, 1, 0) {
		t.Fatal("write miss rejected")
	}
	if !s.CacheResident(0x4000) {
		t.Error("write-allocate did not install the line")
	}
	// Subsequent read is a hit.
	if !startRead(s, 0, 0x4001, 100) {
		t.Fatal("read rejected")
	}
	if !s.MDReady(0, 102) {
		t.Error("read after write-allocate should hit (ready at +2)")
	}
}

func TestDirtyEvictionCostsWriteback(t *testing.T) {
	s := newSys(t, Config{CacheWords: 64, CacheWays: 2}) // 2 sets × 2 ways
	// Three lines mapping to the same set: with 2 sets of 2 ways and line
	// 16, set = (va/16) % 2, so va 0, 64, 128 share set 0.
	startWrite(s, 0, 0, 7, 0) // dirty line A
	startRead(s, 0, 64, 100)  // line B
	s.MD(0, 200)
	base := s.Stats().Writebacks
	startRead(s, 0, 128, 300) // evicts dirty A
	if s.Stats().Writebacks != base+1 {
		t.Errorf("writebacks = %d, want %d", s.Stats().Writebacks, base+1)
	}
	// Data survives eviction.
	startRead(s, 0, 0, 500)
	if got := s.MD(0, 600); got != 7 {
		t.Errorf("evicted data lost: %d", got)
	}
}

func TestBaseRegistersAndVA(t *testing.T) {
	s := newSys(t, Config{})
	s.SetBase(5, 0x10000)
	if got := s.VA(5, 0x1234); got != 0x11234 {
		t.Errorf("VA = %#x", got)
	}
	// 28-bit wrap.
	s.SetBase(6, VAMask)
	if got := s.VA(6, 1); got != 0 {
		t.Errorf("VA wrap = %#x", got)
	}
}

func TestMapOverride(t *testing.T) {
	s := newSys(t, Config{})
	s.MapSet(10, 20)
	s.Poke(20*PageWords+5, 0xABCD) // writes through the map: vpage 10 → rpage 20... Poke uses translate too
	if got := s.Peek(10*PageWords + 5); got != 0xABCD {
		t.Errorf("mapped read = %#04x", got)
	}
	if s.MapGet(10) != 20 {
		t.Errorf("MapGet = %d", s.MapGet(10))
	}
	if s.MapGet(11) != 11 {
		t.Errorf("identity MapGet = %d", s.MapGet(11))
	}
}

func TestFastIOBypassesCache(t *testing.T) {
	s := newSys(t, Config{})
	for i := uint32(0); i < LineWords; i++ {
		s.Poke(0x8000+i, uint16(i)*3)
	}
	blk, ok := s.FastRead(0x8000, 100)
	if !ok {
		t.Fatal("fast read rejected with free storage")
	}
	for i := range blk {
		if blk[i] != uint16(i)*3 {
			t.Errorf("blk[%d] = %d", i, blk[i])
		}
	}
	if s.CacheResident(0x8000) {
		t.Error("fast read polluted the cache")
	}
}

func TestFastReadSeesDirtyData(t *testing.T) {
	s := newSys(t, Config{})
	startWrite(s, 0, 0x8000, 0x7777, 0) // dirty in cache
	blk, ok := s.FastRead(0x8000, 50)
	if !ok {
		t.Fatal("fast read rejected")
	}
	if blk[0] != 0x7777 {
		t.Errorf("fast read missed dirty data: %#04x", blk[0])
	}
}

func TestFastWriteInvalidatesCache(t *testing.T) {
	s := newSys(t, Config{})
	startRead(s, 0, 0x8000, 0)
	s.MD(0, 100)
	var blk [LineWords]uint16
	blk[0] = 0x9999
	if !s.FastWrite(0x8000, blk, 200) {
		t.Fatal("fast write rejected")
	}
	startRead(s, 0, 0x8000, 300)
	if got := s.MD(0, 400); got != 0x9999 {
		t.Errorf("processor read stale data %#04x after fast write", got)
	}
}

func TestFastIORateLimit(t *testing.T) {
	s := newSys(t, Config{})
	if _, ok := s.FastRead(0, 0); !ok {
		t.Fatal("first block rejected")
	}
	if _, ok := s.FastRead(16, 4); ok {
		t.Error("second block accepted before storage cycle elapsed")
	}
	if _, ok := s.FastRead(16, 8); !ok {
		t.Error("second block rejected at 8 cycles")
	}
	// Full-rate streaming: one block per 8 cycles = 16 words × 16 bits /
	// (8 × 60ns) = 533 Mbit/s — the paper's 530 Mbit/s I/O bandwidth.
	words := 2 * LineWords
	bits := float64(words * 16)
	seconds := float64(16) * 60e-9
	mbits := bits / seconds / 1e6
	if mbits < 500 || mbits > 560 {
		t.Errorf("streaming bandwidth %.0f Mbit/s, want ≈533", mbits)
	}
}

func TestFlush(t *testing.T) {
	s := newSys(t, Config{})
	startWrite(s, 0, 0x100, 5, 0)
	if !s.CacheResident(0x100) {
		t.Fatal("line not resident")
	}
	before := s.Stats().Writebacks
	s.Flush(0x100, 10)
	if s.CacheResident(0x100) {
		t.Error("flush left line resident")
	}
	if s.Stats().Writebacks != before+1 {
		t.Error("dirty flush did not count a writeback")
	}
}

func TestPeekPokeRoundTrip(t *testing.T) {
	s := newSys(t, Config{StorageWords: 1 << 16})
	f := func(va uint32, v uint16) bool {
		va &= 0xFFFF
		s.Poke(va, v)
		return s.Peek(va) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{CacheWords: 100}); err == nil {
		t.Error("want error for non-divisible cache size")
	}
	if _, err := New(Config{CacheWords: 96, CacheWays: 2}); err == nil {
		t.Error("want error for non-power-of-two sets")
	}
	if _, err := New(Config{StorageWords: 17}); err == nil {
		t.Error("want error for odd storage size")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := newSys(t, Config{})
	startRead(s, 0, 0, 0) // miss
	s.MD(0, 100)
	startRead(s, 0, 1, 200) // hit
	s.MD(0, 300)
	startWrite(s, 0, 2, 9, 400) // hit
	st := s.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAdmitHasNoSideEffects: a refused or admitted but uncommitted
// reference changes no counter, no LRU order and no timing, and a refusal
// names the cycle its cause ends.
func TestAdmitHasNoSideEffects(t *testing.T) {
	s := newSys(t, Config{CacheWords: 64, CacheWays: 2}) // 2 sets × 2 ways
	startRead(s, 0, 0, 0)                                // miss: storage busy until 8, MD at 26
	s.Warm(64)                                           // same set as va 0, more recent
	before := s.Stats()
	if _, rel, ok := s.Admit(0, 64, false, 5); ok || rel != 26 {
		t.Errorf("fetch with one outstanding: ok %v, release %d; want refused until 26", ok, rel)
	}
	if _, rel, ok := s.Admit(1, 0x2000, true, 5); ok || rel != 8 {
		t.Errorf("store miss with the pipe busy: ok %v, release %d; want refused until 8", ok, rel)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := s.Admit(1, 0, false, 6); !ok { // a hit on the older line
			t.Fatal("hit refused")
		}
	}
	if s.Stats() != before {
		t.Errorf("Admit changed Stats: %+v, was %+v", s.Stats(), before)
	}
	// Admitting va 0 did not refresh its LRU: the next fill in the set
	// still evicts it, not 64.
	startRead(s, 1, 128, 40)
	if s.CacheResident(0) || !s.CacheResident(64) {
		t.Error("Admit touched the LRU order")
	}
}

// TestReadAfterSameWordFlush: a hit admitted in the Hold phase whose line
// the same instruction's FF then flushes is fetched again. A dirty line's
// writeback holds the storage pipe for one RAM cycle first, so MD is ready
// a miss latency after the pipe frees; a clean line refills at once.
func TestReadAfterSameWordFlush(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		s := newSys(t, Config{})
		s.Poke(0x500, 0x4242)
		s.Warm(0x500)
		if dirty {
			startWrite(s, 0, 0x500, 0x4343, 0)
		}
		const now = 100
		r, _, ok := s.Admit(2, 0x500, false, now)
		if !ok {
			t.Fatal("hit refused")
		}
		before := s.Stats()
		s.Flush(0x500, now)
		s.Read(2, r, now)
		want := uint64(now + 26)
		ops := before.StorageOps + 1
		if dirty {
			want += 8
			ops++
		}
		if s.MDReady(2, want-1) || !s.MDReady(2, want) || s.MDReadyAt(2, false) != want || s.MDReadyAt(2, true) != want {
			t.Errorf("dirty=%v: MD ready at %d (fixed wait %d), want %d", dirty, s.MDReadyAt(2, false), s.MDReadyAt(2, true), want)
		}
		st := s.Stats()
		if st.Misses != before.Misses+1 || st.Hits != before.Hits || st.StorageOps != ops || s.StorageFreeAt() != want-26+8 {
			t.Errorf("dirty=%v: stats %+v (storage free at %d), before %+v", dirty, st, s.StorageFreeAt(), before)
		}
		if !s.CacheResident(0x500) {
			t.Errorf("dirty=%v: refetched line not resident", dirty)
		}
		wantMD := uint16(0x4242)
		if dirty {
			wantMD = 0x4343
		}
		if got := s.MD(2, want); got != wantMD {
			t.Errorf("dirty=%v: MD = %#04x, want %#04x", dirty, got, wantMD)
		}
	}
}

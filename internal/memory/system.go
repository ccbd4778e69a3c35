package memory

import (
	"fmt"
)

// Config sizes the memory system. The defaults correspond to the machine
// the paper describes.
type Config struct {
	// CacheWords is the cache capacity in 16-bit words (default 4096).
	CacheWords int
	// CacheWays is the set associativity (default 2).
	CacheWays int
	// StorageWords is the real-memory size in words (default 1<<20 = 2 MB;
	// the Dorado supported up to 4 M words = 8 MB).
	StorageWords int
}

// The memory system's timing, in cycles.
const (
	// hitLatency runs from Fetch to MD-ready on a hit: "a cache which has
	// a latency of two cycles, and can deliver a word every cycle" (§3).
	hitLatency = 2
	// missLatency runs from Fetch to MD-ready on a miss: "the difference
	// between the best case and the worst is more than an order of
	// magnitude" (§5.7).
	missLatency = 26
	// storageCycle is the minimum spacing of storage references: "the
	// maximum rate at which storage references can be made is one every
	// eight cycles; this is the cycle time of the main storage RAMs"
	// (§6.2.1).
	storageCycle = 8
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CacheWords == 0 {
		c.CacheWords = 4096
	}
	if c.CacheWays == 0 {
		c.CacheWays = 2
	}
	if c.StorageWords == 0 {
		c.StorageWords = 1 << 20
	}
	return c
}

// NumTasks matches the processor's 16 microcode tasks.
const NumTasks = 16

// mdState is one task's memory-data register state (task-specific, §5.3:
// "the memory data register" is among the task-specific registers).
type mdState struct {
	val     uint16
	readyAt uint64 // cycle at which val may be used
	issueAt uint64 // cycle the fetch was issued (for the fixed-wait ablation)
	pending bool   // a fetch is outstanding
}

// Stats counts memory-system activity.
type Stats struct {
	Reads      uint64 // processor fetches
	Writes     uint64 // processor stores
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	StorageOps uint64 // storage-pipe occupancies (fills, writebacks, fast blocks)
	FastReads  uint64 // fast-I/O blocks read
	FastWrites uint64 // fast-I/O blocks written
	MapFaults  uint64 // references past the end of real storage (wrapped)
	Faults     uint64 // protection/vacancy faults (see map.go)
}

// System is the memory subsystem: base registers, page map, cache timing,
// storage pipe, and per-task MD state.
type System struct {
	cfg Config
	// pages holds real storage, page ra/PageWords holding word
	// ra%PageWords; when the size is not a whole number of pages, the
	// last page's words past the end are never used. Every page starts as
	// zeroPage and gets words of its own at its first store (own), so a
	// machine holds only the storage it has written.
	pages []*[PageWords]uint16
	cache *cache

	base  [32]uint32          // 28-bit base registers (MEMBASE selects one)
	vmapx map[uint32]mapEntry // page map overrides: translation + flags (identity default)

	md            [NumTasks]mdState
	storageFreeAt uint64 // next cycle a storage reference may start

	fault       Fault
	faultNotify func(Fault)

	stats Stats
}

// PageWords is the map page size in words, and the size of the pages
// storage is held in.
const PageWords = 256

// zeroPage is the words of every storage page no store has reached. All
// systems in the process share it, so nothing may write it: a store gives
// its page words of its own first (own).
var zeroPage [PageWords]uint16

// VAMask masks a 28-bit virtual address.
const VAMask = 1<<28 - 1

// New builds a memory system.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	c, err := newCache(cfg.CacheWords, cfg.CacheWays)
	if err != nil {
		return nil, err
	}
	if cfg.StorageWords <= 0 || cfg.StorageWords%LineWords != 0 {
		return nil, fmt.Errorf("memory: storage size %d not a multiple of %d", cfg.StorageWords, LineWords)
	}
	pages := make([]*[PageWords]uint16, (cfg.StorageWords+PageWords-1)/PageWords)
	for i := range pages {
		pages[i] = &zeroPage
	}
	return &System{
		cfg:   cfg,
		pages: pages,
		cache: c,
		vmapx: map[uint32]mapEntry{},
	}, nil
}

// load reads the storage word at real address ra.
func (s *System) load(ra uint32) uint16 { return s.pages[ra/PageWords][ra%PageWords] }

// store writes the storage word at real address ra.
func (s *System) store(ra uint32, v uint16) { s.own(ra / PageWords)[ra%PageWords] = v }

// own returns storage page p's words for a store, first giving the page
// words of its own if it still reads zeroPage.
func (s *System) own(p uint32) *[PageWords]uint16 {
	w := s.pages[p]
	if w == &zeroPage {
		w = new([PageWords]uint16)
		s.pages[p] = w
	}
	return w
}

// OwnedPages returns how many storage pages hold words of their own:
// those a store has reached since the system was built, or a restore
// filled. The rest read the shared zero page, so the system's storage
// takes OwnedPages*PageWords words.
func (s *System) OwnedPages() int {
	n := 0
	for _, w := range s.pages {
		if w != &zeroPage {
			n++
		}
	}
	return n
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats {
	st := s.stats
	st.Hits = s.cache.hits
	st.Misses = s.cache.misses
	st.Writebacks = s.cache.writebacks
	return st
}

// SetBase loads base register i (28 bits).
func (s *System) SetBase(i int, va uint32) { s.base[i&31] = va & VAMask }

// Base reads base register i.
func (s *System) Base(i int) uint32 { return s.base[i&31] }

// SetBaseLo loads the low 16 bits of base register i, preserving the high
// bits (the FF PutBaseLo path: base registers load from the 16-bit B bus
// in two halves).
func (s *System) SetBaseLo(i int, lo uint16) {
	s.base[i&31] = s.base[i&31]&^0xFFFF | uint32(lo)
}

// SetBaseHi loads the high 12 bits of base register i.
func (s *System) SetBaseHi(i int, hi uint16) {
	s.base[i&31] = s.base[i&31]&0xFFFF | uint32(hi&0xFFF)<<16
}

// BaseLo reads the low 16 bits of base register i.
func (s *System) BaseLo(i int) uint16 { return uint16(s.base[i&31]) }

// VA forms the virtual address for a reference: base[membase] + displacement.
func (s *System) VA(membase uint8, disp uint16) uint32 {
	return (s.base[membase&31] + uint32(disp)) & VAMask
}

// MapSet overrides the translation of virtual page vp to real page rp
// (clearing any Vacant flag; other flags are preserved).
func (s *System) MapSet(vp, rp uint32) {
	vp &= VAMask / PageWords
	e := s.entry(vp)
	e.rp = rp
	e.flags.Vacant = false
	s.vmapx[vp] = e
}

// MapGet returns the real page for virtual page vp.
func (s *System) MapGet(vp uint32) uint32 {
	vp &= VAMask / PageWords
	if e, ok := s.vmapx[vp]; ok {
		return e.rp
	}
	return vp
}

// translate maps a virtual address to a real storage index.
func (s *System) translate(va uint32) uint32 {
	ra := s.remap(va & VAMask)
	if int(ra) >= s.cfg.StorageWords {
		s.stats.MapFaults++
		ra %= uint32(s.cfg.StorageWords)
	}
	return ra
}

// remap maps a masked virtual address through the page map. While no page
// has an override the map is the identity, and the lookup is skipped. It
// reads the map itself rather than through MapGet, which keeps Peek, the
// IFU's fetch of every code word, within the compiler's inlining budget.
func (s *System) remap(va uint32) uint32 {
	if len(s.vmapx) != 0 {
		if e, ok := s.vmapx[va/PageWords]; ok {
			return e.rp*PageWords + va%PageWords
		}
	}
	return va
}

// blockIndex translates the aligned block at va with one map lookup: a
// block never crosses a page, so its words are consecutive in one
// storage page.
// whole is false when the block runs past the end of storage, where each
// word wraps and counts its own map fault (translate).
func (s *System) blockIndex(va uint32) (ra uint32, whole bool) {
	ra = s.remap(va & VAMask)
	return ra, int(ra)+LineWords <= s.cfg.StorageWords
}

// storageFree reports whether a storage reference can start at cycle now.
func (s *System) storageFree(now uint64) bool { return now >= s.storageFreeAt }

// StorageFreeAt returns the first cycle at which a storage reference (a
// miss fill, writeback or fast-I/O block) may start. Only a reference or a
// Flush moves it, so an idle controller waiting for the pipe can sleep
// until then.
func (s *System) StorageFreeAt() uint64 { return s.storageFreeAt }

// takeStorage occupies the storage pipe for n back-to-back RAM cycles.
func (s *System) takeStorage(now uint64, n int) {
	s.storageFreeAt = now + uint64(n*storageCycle)
	s.stats.StorageOps += uint64(n)
}

// Ref is a reference the memory has admitted (Admit): its virtual
// address and the cache line it found there, nil on a miss. Read or Write
// commits it later in the same cycle.
type Ref struct {
	va   uint32
	line *line
}

// Admit decides, without side effects, whether the memory accepts a
// reference by task to va at cycle now (a fetch, or a store when store is
// set). It refuses a fetch while the task's previous fetch is outstanding,
// and any reference that misses while the storage pipe is busy. The
// processor asks in its Hold phase (§5.7) and commits an admitted Ref with
// Read or Write. On refusal, release is a cycle before which the same
// reference stays refused, provided no reference, fast-I/O transfer or
// Flush happens in between.
func (s *System) Admit(task int, va uint32, store bool, now uint64) (r Ref, release uint64, ok bool) {
	if md := &s.md[task&15]; !store && md.pending && now < md.readyAt {
		return r, md.readyAt, false // one outstanding fetch per task; use MD first
	}
	r = Ref{va: va, line: s.cache.find(va)}
	if r.line == nil && !s.storageFree(now) {
		return r, s.storageFreeAt, false // retried via Hold; counted once when committed
	}
	return r, 0, true
}

// Read commits an admitted fetch for task at cycle now; it cannot refuse.
// MD holds the word once the hit or miss latency has passed.
func (s *System) Read(task int, r Ref, now uint64) {
	s.stats.Reads++
	if len(s.vmapx) != 0 {
		s.checkRef(task, r.va, false) // flag maintenance + vacancy fault
	}
	md := &s.md[task&15]
	md.issueAt, md.readyAt = now, now+hitLatency
	if !s.cache.rehit(r) {
		_, md.issueAt = s.refill(r.va, now)
		md.readyAt = md.issueAt + missLatency
	}
	md.val = s.load(s.translate(r.va))
	md.pending = true
}

// Write commits an admitted store of data for task at cycle now; it cannot
// refuse. Stores do not touch MD. The cache is write-allocate, write-back.
func (s *System) Write(task int, r Ref, data uint16, now uint64) {
	s.stats.Writes++
	if len(s.vmapx) != 0 && s.checkRef(task, r.va, true) {
		// A faulting store completes (the instruction is not held; §5.7's
		// Hold is not for faults) but its data is suppressed; the fault
		// task cleans up.
		return
	}
	l := r.line
	if !s.cache.rehit(r) {
		l, _ = s.refill(r.va, now)
	}
	l.dirty = true
	s.store(s.translate(r.va), data)
}

// refill installs the line of a committed reference that misses, or whose
// hit the same instruction's FF flushed after admission. The fill starts
// when the storage pipe frees; refill returns the line and that cycle.
func (s *System) refill(va uint32, now uint64) (*line, uint64) {
	s.cache.misses++
	start := max(now, s.storageFreeAt)
	l, dirty := s.cache.fill(va)
	if dirty {
		s.takeStorage(start, 2) // line fill + victim writeback
	} else {
		s.takeStorage(start, 1)
	}
	return l, start
}

// MDReady reports whether task's most recent fetch has delivered (§5.7: the
// processor holds an instruction that uses MD before this point).
func (s *System) MDReady(task int, now uint64) bool {
	md := &s.md[task&15]
	return !md.pending || now >= md.readyAt
}

// MDReadyFixed is the §5.7 ablation of MDReady: a design without Hold that
// "waits a fixed (unfortunately, maximum) time" treats every fetch as if it
// took the full miss latency.
func (s *System) MDReadyFixed(task int, now uint64) bool {
	md := &s.md[task&15]
	return !md.pending || now >= md.issueAt+missLatency
}

// MDReadyAt returns the cycle at which a use of task's MD stops holding:
// the fetch's readyAt, or under the fixed-wait ablation (fixedWait, see
// MDReadyFixed) its issue cycle plus the miss latency.
func (s *System) MDReadyAt(task int, fixedWait bool) uint64 {
	md := &s.md[task&15]
	if fixedWait {
		return md.issueAt + missLatency
	}
	return md.readyAt
}

// MD returns task's memory-data word. Call only when MDReady; a too-early
// call is a simulator-usage bug, not a hardware possibility.
func (s *System) MD(task int, now uint64) uint16 {
	md := &s.md[task&15]
	if md.pending && now < md.readyAt {
		panic("memory: MD read before ready (processor must Hold)")
	}
	md.pending = false
	return md.val
}

// Warm installs va's cache line without any timing effects — a setup
// helper for tests and benchmarks that need a known-warm cache.
func (s *System) Warm(va uint32) {
	if s.cache.find(va) == nil {
		s.cache.fill(va)
	}
}

// Peek reads a word functionally (no timing effects). For tests, loaders,
// and devices outside the timed paths.
func (s *System) Peek(va uint32) uint16 { return s.load(s.translate(va)) }

// Poke writes a word functionally.
func (s *System) Poke(va uint32, v uint16) { s.store(s.translate(va), v) }

// Flush writes back and invalidates the cache line covering va (FF op).
// A dirty line's writeback waits for the storage pipe, as a fill does.
func (s *System) Flush(va uint32, now uint64) {
	if s.cache.invalidate(va) {
		s.takeStorage(max(now, s.storageFreeAt), 1)
	}
}

// CacheResident reports whether va's line is resident (no side effects).
func (s *System) CacheResident(va uint32) bool { return s.cache.find(va) != nil }

// FastRead transfers one aligned 16-word block from storage to a device
// without polluting the cache (§5.8). It returns ok=false while the storage
// pipe is busy; the device retries. Dirty cached data is observed correctly
// because the cache holds none: contents live only in storage.
func (s *System) FastRead(va uint32, now uint64) (block [LineWords]uint16, ok bool) {
	if !s.storageFree(now) {
		return block, false
	}
	va &^= LineWords - 1
	if ra, whole := s.blockIndex(va); whole {
		copy(block[:], s.pages[ra/PageWords][ra%PageWords:])
	} else {
		for i := range block {
			block[i] = s.load(s.translate(va + uint32(i)))
		}
	}
	s.takeStorage(now, 1)
	s.stats.FastReads++
	return block, true
}

// FastWrite transfers one aligned 16-word block from a device to storage,
// invalidating any cached copy so the processor sees the new data.
func (s *System) FastWrite(va uint32, block [LineWords]uint16, now uint64) bool {
	if !s.storageFree(now) {
		return false
	}
	va &^= LineWords - 1
	if ra, whole := s.blockIndex(va); whole {
		copy(s.own(ra / PageWords)[ra%PageWords:], block[:])
	} else {
		for i := range block {
			s.store(s.translate(va+uint32(i)), block[i])
		}
	}
	s.cache.invalidate(va)
	s.takeStorage(now, 1)
	s.stats.FastWrites++
	return true
}

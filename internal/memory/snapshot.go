package memory

import (
	"cmp"
	"fmt"
	"slices"

	"dorado/internal/state"
)

// Snapshot sections owned by the memory system. The configuration section
// exists so a restore into a differently-sized or differently-timed memory
// fails loudly instead of continuing with divergent timing.
const (
	sectMemConfig  = "MCFG"
	sectMemState   = "MEMS"
	sectMemStorage = "MDAT"
	sectMemCache   = "MCCH"
)

// page is one page-map override as a snapshot codes it.
type page struct {
	vp uint32
	e  mapEntry
}

// State describes the memory system's complete state to a snapshot codec:
// configuration fingerprint (compared, never applied), base registers,
// page map, per-task MD state, storage-pipe timing, fault latch, counters,
// the cache's residency/LRU metadata, and the storage contents as the
// pages that hold a nonzero word. A restoring system must have been built
// with the identical configuration.
func (s *System) State(c *state.Codec) {
	c.Section(sectMemConfig)
	want := [...]uint32{uint32(s.cfg.CacheWords), uint32(s.cfg.CacheWays), uint32(s.cfg.StorageWords),
		hitLatency, missLatency, storageCycle}
	got := want
	for i := range got {
		c.U32(&got[i])
	}
	if got != want {
		c.Fail(fmt.Errorf("memory: snapshot config %v, machine config %v", got, want))
	}

	c.Section(sectMemState)
	c.U64(&s.storageFreeAt)
	for i := range s.base {
		c.U32(&s.base[i])
	}
	for i := range s.md {
		md := &s.md[i]
		c.U16(&md.val)
		c.U64(&md.readyAt)
		c.U64(&md.issueAt)
		c.Bool(&md.pending)
	}
	kind := uint8(s.fault.Kind)
	if c.U8(&kind); c.Decoded() {
		s.fault.Kind = FaultKind(kind)
	}
	c.U32(&s.fault.VA)
	c.Int(&s.fault.Task, NumTasks)
	st := &s.stats
	for _, p := range [...]*uint64{&st.Reads, &st.Writes, &st.StorageOps, &st.FastReads, &st.FastWrites, &st.MapFaults, &st.Faults} {
		c.U64(p)
	}
	// The page-map overrides, sorted by virtual page so the encoding is
	// canonical (Go map iteration order is deliberately random).
	var pages []page
	if !c.Decoding() && len(s.vmapx) > 0 {
		pages = make([]page, 0, len(s.vmapx))
		for vp, e := range s.vmapx {
			pages = append(pages, page{vp, e})
		}
		slices.SortFunc(pages, func(a, b page) int { return cmp.Compare(a.vp, b.vp) })
	}
	state.List(c, &pages, 12, func(p *page) {
		c.U32(&p.vp)
		c.U32(&p.e.rp)
		c.Bool(&p.e.flags.WP)
		c.Bool(&p.e.flags.Vacant)
		c.Bool(&p.e.flags.Ref)
		c.Bool(&p.e.flags.Dirty)
	})
	if c.Decoded() {
		s.vmapx = make(map[uint32]mapEntry, len(pages))
		for _, p := range pages {
			s.vmapx[p.vp] = p.e
		}
	}

	c.Section(sectMemCache)
	c.U32(&s.cache.clock)
	c.U64(&s.cache.hits)
	c.U64(&s.cache.misses)
	c.U64(&s.cache.writebacks)
	for i := range s.cache.lines {
		l := &s.cache.lines[i]
		c.Bool(&l.valid)
		c.Bool(&l.dirty)
		c.U32(&l.tag)
		c.U32(&l.lru)
	}

	c.Section(sectMemStorage)
	c.Pages(s.pages, s.cfg.StorageWords, &zeroPage)
}

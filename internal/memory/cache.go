package memory

import (
	"fmt"
	"math/bits"
)

// LineWords is the cache line ("munch") size in 16-bit words. It equals the
// fast-I/O block size: storage moves data in 16-word units (§5.8).
const LineWords = 16

// cache is set-associative timing metadata over virtual addresses. The data
// itself lives in storage (System.pages); the cache tracks which lines
// would be resident, their dirtiness, and LRU order, to decide hit vs miss
// and writeback traffic.
type cache struct {
	ways  int
	lines []line // sets × ways
	// setMask and tagShift index by mask and shift, since sets is a power
	// of two: set = va/LineWords mod sets, tag = va/LineWords/sets.
	setMask  uint32
	tagShift uint
	clock    uint32 // LRU timestamp source
	// stats
	hits, misses, writebacks uint64
}

type line struct {
	valid bool
	dirty bool
	tag   uint32 // va / LineWords / sets
	lru   uint32 // smaller = older
}

func newCache(words, ways int) (*cache, error) {
	if words%(LineWords*ways) != 0 {
		return nil, fmt.Errorf("memory: cache size %d not divisible by ways×line (%d×%d)", words, ways, LineWords)
	}
	sets := words / (LineWords * ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("memory: cache set count %d not a power of two", sets)
	}
	return &cache{ways: ways, lines: make([]line, sets*ways),
		setMask: uint32(sets - 1), tagShift: uint(bits.TrailingZeros(uint(sets * LineWords)))}, nil
}

func (c *cache) set(va uint32) []line {
	s := int(va/LineWords&c.setMask) * c.ways
	return c.lines[s : s+c.ways]
}

func (c *cache) tag(va uint32) uint32 { return va >> c.tagShift }

// find returns va's resident line, or nil on a miss, without LRU or stat
// side effects.
func (c *cache) find(va uint32) *line {
	set := c.set(va)
	t := c.tag(va)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			return &set[i]
		}
	}
	return nil
}

// rehit charges a hit to the line r found at admission and reports true,
// or reports false when that line no longer holds r's address: r missed,
// or the same instruction's FF flushed the line since.
func (c *cache) rehit(r Ref) bool {
	if l := r.line; l != nil && l.valid && l.tag == c.tag(r.va) {
		c.hit(l)
		return true
	}
	return false
}

// hit accounts a reference to resident line l: LRU and the hit count.
func (c *cache) hit(l *line) {
	c.touch(l)
	c.hits++
}

func (c *cache) touch(l *line) {
	c.clock++
	l.lru = c.clock
}

// fill installs the line containing va, returning it and whether a dirty
// victim was evicted (which costs a writeback storage cycle).
func (c *cache) fill(va uint32) (l *line, evictedDirty bool) {
	set := c.set(va)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	evictedDirty = victim.valid && victim.dirty
	if evictedDirty {
		c.writebacks++
	}
	*victim = line{valid: true, tag: c.tag(va)}
	c.touch(victim)
	return victim, evictedDirty
}

// invalidate drops the line containing va if resident, reporting whether it
// was dirty (caller accounts the writeback).
func (c *cache) invalidate(va uint32) (wasDirty bool) {
	set := c.set(va)
	t := c.tag(va)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			wasDirty = set[i].dirty
			set[i] = line{}
			if wasDirty {
				c.writebacks++
			}
			return wasDirty
		}
	}
	return false
}

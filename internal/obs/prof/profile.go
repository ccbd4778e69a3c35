// Package prof is the model half of the microarchitectural profiler: it
// turns a core.Profiler snapshot into a portable Profile — microaddresses
// named by masm symbols, superblock lifecycles with abort reasons — and
// exports it as JSON, pprof protobuf (WritePprof), and Chrome trace_event
// spans (WriteChromeTrace).
//
// A Profile is a value: Merge folds many (a fleet's sessions) into one,
// dropping the time-domain span ring, which only makes sense inside a
// single machine's cycle domain.
package prof

import (
	"sort"

	"dorado/internal/core"
	"dorado/internal/microcode"
)

// Addr is one microaddress's attribution row: every cycle the address
// occupied the processor, split into completed instructions, §5.7 holds,
// and (the remainder) DelayedBranch stall cycles.
type Addr struct {
	Addr     microcode.Addr `json:"addr"`
	Name     string         `json:"name"` // "SYMBOL+off", or "page.word" unsymbolized
	Cycles   uint64         `json:"cycles"`
	Executed uint64         `json:"executed"`
	Holds    uint64         `json:"holds"`
}

// PC is one (address, count) pair of a block's exit-PC histogram.
type PC struct {
	PC    microcode.Addr `json:"pc"`
	Name  string         `json:"name"`
	Count uint64         `json:"count"`
}

// Block is one superblock's lifecycle: how often it compiled, entered,
// and — the abort accounting — how each execution ended.
type Block struct {
	Start        microcode.Addr    `json:"start"`
	Name         string            `json:"name"`
	Instructions int               `json:"instructions"`
	Compiled     uint64            `json:"compiled"`
	Entries      uint64            `json:"entries"`
	Cycles       uint64            `json:"cycles"` // fused cycles retired inside
	Exits        map[string]uint64 `json:"exits"`  // reason name → count, zeros omitted
	ExitPCs      []PC              `json:"exit_pcs,omitempty"`
}

// Span is one superblock execution in time (machine cycles).
type Span struct {
	Start  uint64         `json:"start"`
	Cycles uint64         `json:"cycles"`
	Block  microcode.Addr `json:"block"`
	Name   string         `json:"name"`
	Reason string         `json:"reason"`
}

// Profile is the portable profile document. Rows are sorted by address, so
// two identical runs marshal byte-identically.
type Profile struct {
	Cycles   uint64            `json:"cycles"` // total attributed cycles
	Executed uint64            `json:"executed"`
	Holds    uint64            `json:"holds"`
	Addrs    []Addr            `json:"addrs"`
	Blocks   []Block           `json:"blocks,omitempty"`
	Exits    map[string]uint64 `json:"exits,omitempty"` // block exits by reason, all blocks
	Spans    []Span            `json:"spans,omitempty"` // recent block executions, oldest first
	// SpansDropped counts block executions that fell off the profiler's
	// bounded span ring before this profile was taken.
	SpansDropped uint64 `json:"spans_dropped,omitempty"`
}

// SymbolTable resolves microaddresses to masm symbol names: an address maps
// to the nearest preceding label plus offset, the convention debuggers use
// for stripped address spaces. Built once per program, used for every row.
type SymbolTable struct {
	addrs []microcode.Addr
	names []string
}

// NewSymbolTable builds a table from a masm symbol map (label → address).
// When two labels share an address the lexicographically smaller wins, so
// resolution is deterministic. A nil map yields an empty table: Resolve
// falls back to bare "page.word" addresses.
func NewSymbolTable(symbols map[string]microcode.Addr) *SymbolTable {
	names := make([]string, 0, len(symbols))
	for name := range symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	t := &SymbolTable{}
	byAddr := map[microcode.Addr]string{}
	for _, name := range names {
		a := symbols[name]
		if _, taken := byAddr[a]; !taken {
			byAddr[a] = name
		}
	}
	for a := range byAddr {
		t.addrs = append(t.addrs, a)
	}
	sort.Slice(t.addrs, func(i, j int) bool { return t.addrs[i] < t.addrs[j] })
	t.names = make([]string, len(t.addrs))
	for i, a := range t.addrs {
		t.names[i] = byAddr[a]
	}
	return t
}

// Locate returns the nearest symbol at or before a and the offset from it.
// ok is false when no symbol precedes a (or the table is empty).
func (t *SymbolTable) Locate(a microcode.Addr) (name string, offset int, ok bool) {
	if t == nil {
		return "", 0, false
	}
	i := sort.Search(len(t.addrs), func(i int) bool { return t.addrs[i] > a }) - 1
	if i < 0 {
		return "", 0, false
	}
	return t.names[i], int(a - t.addrs[i]), true
}

// Resolve renders a as "SYMBOL" / "SYMBOL+off", or "page.word" when no
// symbol precedes it.
func (t *SymbolTable) Resolve(a microcode.Addr) string {
	name, off, ok := t.Locate(a)
	if !ok {
		return a.String()
	}
	if off == 0 {
		return name
	}
	return name + "+" + itoa(off)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Build turns a core profiler snapshot into a Profile, naming every row
// through the symbol table (nil is allowed: rows keep bare addresses).
func Build(s core.Snapshot, symbols *SymbolTable) *Profile {
	p := &Profile{}
	for _, a := range s.Addrs {
		p.Cycles += a.Cycles
		p.Executed += a.Executed
		p.Holds += a.Holds
		p.Addrs = append(p.Addrs, Addr{
			Addr: a.Addr, Name: symbols.Resolve(a.Addr),
			Cycles: a.Cycles, Executed: a.Executed, Holds: a.Holds,
		})
	}
	for _, b := range s.Blocks {
		blk := Block{
			Start: b.Start, Name: symbols.Resolve(b.Start),
			Instructions: b.Instructions, Compiled: b.Compiled,
			Entries: b.Entries, Cycles: b.Cycles,
			Exits: reasonMap(b.Exits),
		}
		for _, pc := range b.ExitPCs {
			blk.ExitPCs = append(blk.ExitPCs, PC{
				PC: pc.PC, Name: symbols.Resolve(pc.PC), Count: pc.Count,
			})
		}
		p.Blocks = append(p.Blocks, blk)
	}
	p.Exits = reasonMap(s.Exits)
	for _, sp := range s.Spans {
		p.Spans = append(p.Spans, Span{
			Start: sp.Start, Cycles: sp.Cycles, Block: sp.Block,
			Name: symbols.Resolve(sp.Block), Reason: sp.Reason.String(),
		})
	}
	p.SpansDropped = s.SpansDropped
	return p
}

// reasonMap renders a per-reason counter array as a name-keyed map with
// zero entries omitted (nil when all are zero).
func reasonMap(exits [core.NumExitReasons]uint64) map[string]uint64 {
	var m map[string]uint64
	for r, n := range exits {
		if n == 0 {
			continue
		}
		if m == nil {
			m = map[string]uint64{}
		}
		m[core.ExitReason(r).String()] = n
	}
	return m
}

// Merge folds profiles into one: counters sum by address and block start;
// names come from the first profile naming the row. Spans are dropped —
// cycle timestamps from different machines share no clock. Merging a fleet
// session-by-session in a fixed order is deterministic.
func Merge(profiles ...*Profile) *Profile {
	addrs := map[microcode.Addr]*Addr{}
	blocks := map[microcode.Addr]*Block{}
	out := &Profile{}
	for _, p := range profiles {
		if p == nil {
			continue
		}
		out.Cycles += p.Cycles
		out.Executed += p.Executed
		out.Holds += p.Holds
		out.SpansDropped += p.SpansDropped
		for _, a := range p.Addrs {
			row := addrs[a.Addr]
			if row == nil {
				c := a
				addrs[a.Addr] = &c
				continue
			}
			row.Cycles += a.Cycles
			row.Executed += a.Executed
			row.Holds += a.Holds
		}
		for _, b := range p.Blocks {
			row := blocks[b.Start]
			if row == nil {
				c := b
				c.Exits = copyMap(b.Exits)
				c.ExitPCs = append([]PC(nil), b.ExitPCs...)
				blocks[b.Start] = &c
				continue
			}
			row.Compiled += b.Compiled
			row.Entries += b.Entries
			row.Cycles += b.Cycles
			if row.Instructions < b.Instructions {
				row.Instructions = b.Instructions
			}
			row.Exits = addMap(row.Exits, b.Exits)
			row.ExitPCs = addPCs(row.ExitPCs, b.ExitPCs)
		}
		out.Exits = addMap(out.Exits, p.Exits)
	}
	for _, a := range sortedAddrKeys(addrs) {
		out.Addrs = append(out.Addrs, *addrs[a])
	}
	for _, a := range sortedBlockKeys(blocks) {
		out.Blocks = append(out.Blocks, *blocks[a])
	}
	return out
}

func copyMap(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	c := make(map[string]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func addMap(dst, src map[string]uint64) map[string]uint64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = map[string]uint64{}
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

func sortedAddrKeys(m map[microcode.Addr]*Addr) []microcode.Addr {
	keys := make([]microcode.Addr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedBlockKeys(m map[microcode.Addr]*Block) []microcode.Addr {
	keys := make([]microcode.Addr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func addPCs(dst, src []PC) []PC {
	counts := map[microcode.Addr]PC{}
	for _, pc := range dst {
		counts[pc.PC] = pc
	}
	for _, pc := range src {
		row, ok := counts[pc.PC]
		if !ok {
			counts[pc.PC] = pc
			continue
		}
		row.Count += pc.Count
		counts[pc.PC] = row
	}
	keys := make([]microcode.Addr, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]PC, 0, len(keys))
	for _, k := range keys {
		out = append(out, counts[k])
	}
	return out
}

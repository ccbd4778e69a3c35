package prof

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"dorado/internal/core"
	"dorado/internal/microcode"
)

// testSnapshot is a small hand-built core snapshot: two routines, one
// superblock with mixed exits, two spans.
func testSnapshot() core.Snapshot {
	var exits, blkExits [core.NumExitReasons]uint64
	blkExits[core.ExitBranch] = 7
	blkExits[core.ExitTaskSwitch] = 2
	blkExits[core.ExitGuardFail] = 1
	exits = blkExits
	return core.Snapshot{
		Addrs: []core.AddrCount{
			{Addr: 0x10, Cycles: 100, Executed: 90, Holds: 10},
			{Addr: 0x11, Cycles: 50, Executed: 50},
			{Addr: 0x20, Cycles: 25, Executed: 20, Holds: 5},
		},
		Blocks: []core.BlockSnapshot{{
			Start: 0x10, Instructions: 4, Compiled: 1, Entries: 9, Cycles: 120,
			Exits:   blkExits,
			ExitPCs: []core.PCCount{{PC: 0x14, Count: 7}, {PC: 0x20, Count: 3}},
		}},
		Exits: exits,
		Spans: []core.BlockSpan{
			{Start: 40, Cycles: 12, Block: 0x10, Reason: core.ExitBranch},
			{Start: 60, Cycles: 8, Block: 0x10, Reason: core.ExitTaskSwitch},
		},
	}
}

func testSymbols() *SymbolTable {
	return NewSymbolTable(map[string]microcode.Addr{
		"LOOP": 0x10,
		"SVC":  0x20,
	})
}

func TestSymbolTable(t *testing.T) {
	st := testSymbols()
	for _, tc := range []struct {
		addr microcode.Addr
		want string
	}{
		{0x10, "LOOP"},
		{0x13, "LOOP+3"},
		{0x20, "SVC"},
		{0x25, "SVC+5"},
		{0x05, "00.5"}, // before the first symbol: bare address
	} {
		if got := st.Resolve(tc.addr); got != tc.want {
			t.Errorf("Resolve(%#x) = %q, want %q", tc.addr, got, tc.want)
		}
	}
	var nilTable *SymbolTable
	if got := nilTable.Resolve(0x21); got != "02.1" {
		t.Errorf("nil table Resolve = %q, want bare address", got)
	}
	// Two labels on one address resolve to the lexicographically smaller.
	st2 := NewSymbolTable(map[string]microcode.Addr{"B": 4, "A": 4})
	if got := st2.Resolve(4); got != "A" {
		t.Errorf("shared-address Resolve = %q, want A", got)
	}
}

func TestBuild(t *testing.T) {
	p := Build(testSnapshot(), testSymbols())
	if p.Cycles != 175 || p.Executed != 160 || p.Holds != 15 {
		t.Errorf("totals = %d/%d/%d, want 175/160/15", p.Cycles, p.Executed, p.Holds)
	}
	if len(p.Addrs) != 3 || p.Addrs[0].Name != "LOOP" || p.Addrs[1].Name != "LOOP+1" {
		t.Errorf("addr rows mis-named: %+v", p.Addrs)
	}
	if len(p.Blocks) != 1 || p.Blocks[0].Name != "LOOP" {
		t.Fatalf("block rows: %+v", p.Blocks)
	}
	b := p.Blocks[0]
	if b.Exits["branch"] != 7 || b.Exits["task_switch"] != 2 || b.Exits["guard_fail"] != 1 {
		t.Errorf("block exits = %v", b.Exits)
	}
	if len(b.ExitPCs) != 2 || b.ExitPCs[0].Name != "LOOP+4" || b.ExitPCs[1].Name != "SVC" {
		t.Errorf("exit PCs = %+v", b.ExitPCs)
	}
	if len(p.Spans) != 2 || p.Spans[1].Reason != "task_switch" || p.Spans[0].Name != "LOOP" {
		t.Errorf("spans = %+v", p.Spans)
	}
	// Marshal is deterministic.
	j1, _ := json.Marshal(p)
	j2, _ := json.Marshal(Build(testSnapshot(), testSymbols()))
	if !bytes.Equal(j1, j2) {
		t.Error("identical builds marshal differently")
	}
}

func TestMerge(t *testing.T) {
	a := Build(testSnapshot(), testSymbols())
	b := Build(testSnapshot(), testSymbols())
	m := Merge(a, b)
	if m.Cycles != 350 {
		t.Errorf("merged cycles = %d, want 350", m.Cycles)
	}
	if len(m.Addrs) != 3 || m.Addrs[0].Cycles != 200 {
		t.Errorf("merged addrs: %+v", m.Addrs)
	}
	if len(m.Blocks) != 1 || m.Blocks[0].Entries != 18 || m.Blocks[0].Exits["branch"] != 14 {
		t.Errorf("merged blocks: %+v", m.Blocks)
	}
	if m.Blocks[0].ExitPCs[0].Count != 14 {
		t.Errorf("merged exit PCs: %+v", m.Blocks[0].ExitPCs)
	}
	if len(m.Spans) != 0 {
		t.Error("merge kept spans across cycle domains")
	}
	if m.Exits["guard_fail"] != 2 {
		t.Errorf("merged exits: %v", m.Exits)
	}
	// Merging with nil members and empty profiles is fine.
	if m2 := Merge(nil, a, &Profile{}); m2.Cycles != a.Cycles {
		t.Errorf("merge with nil/empty = %d cycles, want %d", m2.Cycles, a.Cycles)
	}
}

// scanProto walks top-level (field, wire) records of an encoded message.
func scanProto(t *testing.T, b []byte) map[int]int {
	t.Helper()
	counts := map[int]int{}
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			t.Fatal("bad varint in encoding")
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		counts[field]++
		switch wire {
		case 0:
			_, n := uvarint(b)
			b = b[n:]
		case 2:
			l, n := uvarint(b)
			b = b[n:]
			b = b[l:]
		default:
			t.Fatalf("unexpected wire type %d", wire)
		}
	}
	return counts
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

func TestMarshalPprof(t *testing.T) {
	p := Build(testSnapshot(), testSymbols())
	raw := MarshalPprof(p)
	counts := scanProto(t, raw)
	if counts[1] != 3 {
		t.Errorf("%d sample types, want 3", counts[1])
	}
	if counts[2] != len(p.Addrs) {
		t.Errorf("%d samples, want %d", counts[2], len(p.Addrs))
	}
	if counts[4] != len(p.Addrs) {
		t.Errorf("%d locations, want %d", counts[4], len(p.Addrs))
	}
	if counts[5] != 2 { // LOOP and SVC
		t.Errorf("%d functions, want 2", counts[5])
	}
	if counts[6] == 0 {
		t.Error("no string table")
	}
	if !bytes.Contains(raw, []byte("LOOP")) || !bytes.Contains(raw, []byte("SVC")) {
		t.Error("symbol names missing from string table")
	}
	if !bytes.Equal(raw, MarshalPprof(p)) {
		t.Error("marshal not deterministic")
	}

	var gz bytes.Buffer
	if err := WritePprof(&gz, p); err != nil {
		t.Fatalf("WritePprof: %v", err)
	}
	zr, err := gzip.NewReader(&gz)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	back, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if !bytes.Equal(back, raw) {
		t.Error("gzip round trip mismatch")
	}
}

func TestSplitOffset(t *testing.T) {
	for _, tc := range []struct {
		in   string
		name string
		off  int
	}{
		{"LOOP", "LOOP", 0},
		{"LOOP+3", "LOOP", 3},
		{"LOOP+12", "LOOP", 12},
		{"02.1", "02.1", 0},
		{"A+B+2", "A+B", 2},
	} {
		name, off := splitOffset(tc.in)
		if name != tc.name || off != tc.off {
			t.Errorf("splitOffset(%q) = %q,%d want %q,%d", tc.in, name, off, tc.name, tc.off)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	p := Build(testSnapshot(), testSymbols())
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, p); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	// The export is byte-deterministic; this digest pins it across the
	// shared obs encoder.
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != "0c82c151076f10a0741306b79198dd945e7f6219fb48b38553dd471232e99e64" {
		t.Errorf("Chrome-trace export changed: sha256 %s\n%s", got, b.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev["cat"] == "superblock" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("%d superblock events, want 2", spans)
	}
}

func TestReport(t *testing.T) {
	p := Build(testSnapshot(), testSymbols())
	rows := Top(p, 2)
	if len(rows) != 2 || rows[0].Addr != 0x10 {
		t.Errorf("Top: %+v", rows)
	}
	if got := AbortRatio(p); got < 0.29 || got > 0.31 { // 3 aborts of 10 endings
		t.Errorf("AbortRatio = %v, want 0.3", got)
	}
	br := Breakdown(p)
	if len(br) != 3 || br[0].Reason != "branch" || !br[1].Abort {
		t.Errorf("Breakdown: %+v", br)
	}
	var b bytes.Buffer
	if err := WriteReport(&b, p, 5); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	out := b.String()
	for _, want := range []string{"LOOP", "task_switch", "abort", "Hottest"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAbortTable(t *testing.T) {
	rep := &BenchReport{
		Cycles: 1000,
		Workloads: []WorkloadProfile{
			{ID: "emulator", Name: "emu", Profile: Build(testSnapshot(), testSymbols())},
		},
	}
	out := AbortTable(rep)
	// One row per workload, every enum reason as a column, and a non-empty
	// abort percentage from the fixture's task_switch/hold exits.
	for _, want := range []string{"emulator", "ifujump", "task_switch", "guard_fail", "30.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("abort table missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") != 3 { // header + column row + one workload
		t.Errorf("abort table rows:\n%s", out)
	}
}

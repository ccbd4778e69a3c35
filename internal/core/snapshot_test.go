package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"dorado/internal/device"
	"dorado/internal/ifu"
	"dorado/internal/masm"
	"dorado/internal/memory"
	"dorado/internal/microcode"
	"dorado/internal/state"
	"dorado/internal/state/statetest"
)

// snapMachine builds a machine exercising every snapshotted component: the
// data section, memory traffic, two live devices, and a running IFU.
func snapMachine(t testing.TB, cfg Config) *Machine {
	t.Helper()
	bl := masm.NewBuilder()
	bl.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0,
		LC: microcode.LCLoadRM})
	bl.Emit(masm.I{FF: microcode.FFMemBaseBase + 2, A: microcode.ASelFetch, R: 0})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelMD, B: microcode.BSelT,
		LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 0, B: microcode.BSelT, Flow: masm.Goto("emu")})
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("svc")})
	p := mustProgram(t, bl)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(&p.Words)
	m.Mem().SetBase(2, 0x6000)
	m.SetRM(0, 0x40)
	m.SetRM(1, 0x6100)
	if err := m.Attach(device.NewWordSource(11, 27, 2)); err != nil {
		t.Fatal(err)
	}
	m.SetIOAddress(11, 11)
	m.SetTPC(11, p.MustEntry("svc"))
	lb := device.NewLoopback(9)
	lb.Arm(true)
	if err := m.Attach(lb); err != nil {
		t.Fatal(err)
	}
	m.SetIOAddress(9, 9)
	m.SetTPC(9, p.MustEntry("svc"))
	m.Start(p.MustEntry("emu"))
	return m
}

// TestSnapshotRoundTrip is the byte-identity property: restoring a snapshot
// into a fresh machine and snapshotting again reproduces the exact bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, ref := range []bool{false, true} {
		m := snapMachine(t, Config{Reference: ref})
		m.RunCycles(5000)
		snap := m.Snapshot()

		fresh := snapMachine(t, Config{Reference: ref})
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("reference=%v: restore: %v", ref, err)
		}
		again := fresh.Snapshot()
		if !bytes.Equal(snap, again) {
			t.Fatalf("reference=%v: Snapshot→Restore→Snapshot is not byte-identical (%d vs %d bytes)",
				ref, len(snap), len(again))
		}
		// And snapshotting the same machine twice must be deterministic.
		if !bytes.Equal(snap, m.Snapshot()) {
			t.Fatalf("reference=%v: back-to-back snapshots differ", ref)
		}
	}
}

// TestSnapshotSplitRun is the checkpoint property at the core level: running
// N cycles straight through equals running k, snapshotting, restoring into a
// fresh machine, and running N−k — for several k, on both interpreter paths.
func TestSnapshotSplitRun(t *testing.T) {
	const total = 8000
	for _, ref := range []bool{false, true} {
		straight := snapMachine(t, Config{Reference: ref})
		straight.RunCycles(total)
		want := straight.Snapshot()

		for _, k := range []uint64{1, 137, 4000, 7999} {
			first := snapMachine(t, Config{Reference: ref})
			first.RunCycles(k)
			mid := first.Snapshot()

			second := snapMachine(t, Config{Reference: ref})
			if err := second.Restore(mid); err != nil {
				t.Fatalf("reference=%v k=%d: restore: %v", ref, k, err)
			}
			second.RunCycles(total - k)
			if got := second.Snapshot(); !bytes.Equal(got, want) {
				t.Errorf("reference=%v: split at k=%d diverges from straight run", ref, k)
			}
		}
	}
}

// TestSnapshotCrossPath proves a snapshot taken on one interpreter path
// restores onto the other and continues identically: the snapshot holds
// machine state, not interpreter choice.
func TestSnapshotCrossPath(t *testing.T) {
	const k, rest = 3000, 3000

	fast := snapMachine(t, Config{})
	fast.RunCycles(k)
	mid := fast.Snapshot()
	fast.RunCycles(rest)

	ref := snapMachine(t, Config{Reference: true})
	if err := ref.Restore(mid); err != nil {
		t.Fatalf("restore fast snapshot onto reference path: %v", err)
	}
	ref.RunCycles(rest)

	if !bytes.Equal(fast.Snapshot(), ref.Snapshot()) {
		t.Fatal("fast→reference restore diverged from the fast run")
	}
}

// TestRestoreInvalidatesPredecode is the restore analogue of the SetIM rule:
// a machine whose microstore differs from the snapshot must, after Restore,
// execute the *snapshot's* program on the predecoded path — i.e. every
// restored word was decoded as it was installed, not left stale.
func TestRestoreInvalidatesPredecode(t *testing.T) {
	src := snapMachine(t, Config{})
	src.RunCycles(1000)
	snap := src.Snapshot()
	src.RunCycles(1000)

	dst := snapMachine(t, Config{})
	// Poison every microstore word (and therefore every predecode entry)
	// with halt-in-place before restoring.
	for a := 0; a < microcode.StoreSize; a++ {
		dst.SetIM(microcode.Addr(a), microcode.Word{FF: microcode.FFHalt})
	}
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	dst.RunCycles(1000)
	if dst.Halted() {
		t.Fatal("restored machine executed the poisoned predecode cache")
	}
	if !bytes.Equal(dst.Snapshot(), src.Snapshot()) {
		t.Fatal("restored machine diverged from the source")
	}
}

// patchSection returns a copy of snap whose section tag has been passed
// through patch.
func patchSection(t *testing.T, snap []byte, tag string, patch func(body []byte)) []byte {
	t.Helper()
	doc, err := state.Split(bytes.Clone(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range doc.Sections {
		if sec.Tag == tag {
			patch(sec.Body)
			return doc.Join()
		}
	}
	t.Fatalf("no section %q", tag)
	return nil
}

// TestRestoreRejectsImpossibleState: a crafted snapshot whose task
// numbers, microaddresses, IFU operand latch, decode rows or microstore
// words no machine can hold is refused, and the refused machine still
// runs. Each field is patched at its offset in the section Snapshot
// writes.
func TestRestoreRejectsImpossibleState(t *testing.T) {
	src := snapMachine(t, Config{})
	src.RunCycles(100)
	snap := src.Snapshot()
	le := binary.LittleEndian
	// IFUS: the prefetch buffer's length prefix sits at 24; the operand
	// latch's head and length follow the buffer and the two operands.
	latch := func(b []byte) int { return 28 + int(le.Uint32(b[24:])) + 4 }
	for _, c := range []struct {
		name, tag string
		patch     func(b []byte)
	}{
		{"current task 200", "CTRL", func(b []byte) { b[19] = 200 }},
		{"current PC past the microstore", "CTRL", func(b []byte) { le.PutUint16(b[21:], microcode.StoreSize) }},
		{"BESTNEXTTASK 16", "CTRL", func(b []byte) { b[23] = 16 }},
		{"BESTNEXTTASK -1", "CTRL", func(b []byte) { b[23] = 0xFF }},
		{"task 3 TPC past the microstore", "CTRL", func(b []byte) { le.PutUint16(b[26+3*9:], 0xFFFF) }},
		{"pending write to task 16", "DATA", func(b []byte) { b[1053] = 16 }},
		{"reserved FF", "UIMS", func(b []byte) { le.PutUint64(b, microcode.Word{FF: 0xC0}.Encode()) }},
		{"reserved NextControl", "UIMS", func(b []byte) {
			w := microcode.Decode(le.Uint64(b[8*5:]))
			w.Next = 0x7F
			if w.Validate() == nil {
				t.Fatal("NextControl 0x7f validates")
			}
			le.PutUint64(b[8*5:], w.Encode())
		}},
		{"operand head 3", "IFUS", func(b []byte) { b[latch(b)] = 3 }},
		{"operand length 3", "IFUS", func(b []byte) { b[latch(b)+1] = 3 }},
	} {
		bad := patchSection(t, snap, c.tag, c.patch)
		m := snapMachine(t, Config{})
		if err := m.Restore(bad); err == nil {
			t.Errorf("%s: restore accepted", c.name)
		}
		m.RunCycles(200) // must not panic
	}
	// The patches above touch only what they name: unpatched, the same
	// document restores.
	if err := snapMachine(t, Config{}).Restore(patchSection(t, snap, "CTRL", func([]byte) {})); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsMismatch: a snapshot must not restore onto a machine
// with different ablation options or a different device set.
func TestRestoreRejectsMismatch(t *testing.T) {
	src := snapMachine(t, Config{})
	src.RunCycles(100)
	snap := src.Snapshot()

	wrongOpts := snapMachine(t, Config{Options: Options{DelayedBranch: true}})
	if err := wrongOpts.Restore(snap); err == nil {
		t.Error("restore accepted mismatched ablation options")
	}

	bare, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Restore(snap); err == nil {
		t.Error("restore accepted a machine with no devices attached")
	}

	if err := src.Restore(nil); err == nil {
		t.Error("restore accepted an empty document")
	}
	if err := src.Restore(snap[:len(snap)-3]); err == nil {
		t.Error("restore accepted a truncated document")
	}
}

// TestFaultTaskRange: New refuses a fault task no task number names (0
// means none, 1-15 wake that task), so every machine it builds codes its
// fault task in CONF and restores its own snapshot; fault task 15, the
// highest, is the edge.
func TestFaultTaskRange(t *testing.T) {
	for _, ft := range []int{-1, 16, 300} {
		if _, err := New(Config{FaultTask: ft}); err == nil {
			t.Errorf("New accepted fault task %d", ft)
		}
	}
	src := snapMachine(t, Config{FaultTask: 15})
	src.RunCycles(500)
	snap := src.Snapshot()
	dst := snapMachine(t, Config{FaultTask: 15})
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("fault task 15: %v", err)
	}
	if !bytes.Equal(dst.Snapshot(), snap) {
		t.Fatal("fault task 15: the restored machine does not snapshot to the same bytes")
	}
	if err := snapMachine(t, Config{FaultTask: 14}).Restore(snap); err == nil {
		t.Fatal("a fault-task-15 snapshot restored onto a fault-task-14 machine")
	}
}

// TestRestoreClearsStorage: storage words the snapshot does not hold are
// zero after Restore, whatever the machine held before. The split-run
// tests restore only into fresh machines, whose storage is already zero.
func TestRestoreClearsStorage(t *testing.T) {
	src := snapMachine(t, Config{})
	src.RunCycles(1000)
	snap := src.Snapshot()
	dst := snapMachine(t, Config{})
	dst.RunCycles(3000)
	for va := uint32(0); va < 1<<20; va += 997 {
		dst.Mem().Poke(va, uint16(va)|1)
	}
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Snapshot(), snap) {
		t.Fatal("restoring onto dirty storage kept words the snapshot does not hold")
	}
}

// restoreImage is the shared image of restoreMachine's microcode and two
// IFU decode rows, so FuzzRestore's seeds hold a shared microstore and
// decode table.
func restoreImage(t testing.TB) (*Image, *masm.Program) {
	t.Helper()
	bl := masm.NewBuilder()
	bl.EmitAt("emu", masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelRM, R: 0,
		LC: microcode.LCLoadRM})
	bl.Emit(masm.I{A: microcode.ASelFetch, R: 0})
	bl.Emit(masm.I{ALU: microcode.ALUAplusB, A: microcode.ASelMD, B: microcode.BSelT,
		LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 0, B: microcode.BSelT, Flow: masm.Goto("emu")})
	bl.EmitAt("disp", masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 2,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, FF: microcode.FFOutput})
	bl.Emit(masm.I{Block: true, Flow: masm.Goto("disp")})
	p := mustProgram(t, bl)
	var rows [256]ifu.Entry
	rows[0] = ifu.Entry{Valid: true, Handler: 0x10, Name: "NOP"}
	rows[1] = ifu.Entry{Valid: true, Handler: 0x20, Operands: 2, Wide: true, Name: "LIW"}
	img, err := NewImage(&p.Words, &rows)
	if err != nil {
		t.Fatal(err)
	}
	return img, p
}

// restoreMachine builds the small machine FuzzRestore's seeds come from:
// 256 cache words over 4096 storage words, a page-map override, a few
// IFU decode rows, and a Display on task 13 fed by a two-word service
// routine. With run set it installs restoreImage and starts the program;
// without, it is only a restore target of the same shape.
func restoreMachine(t testing.TB, run bool) *Machine {
	t.Helper()
	m, err := New(Config{Memory: memory.Config{CacheWords: 256, CacheWays: 2, StorageWords: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	disp := device.NewDisplay(13, m.Mem(), 24, 4)
	disp.SetBase(0x800)
	if err := m.Attach(disp); err != nil {
		t.Fatal(err)
	}
	if !run {
		return m
	}
	img, p := restoreImage(t)
	m.Install(img)
	m.Mem().MapSet(3, 5)
	m.SetIOAddress(13, 13)
	m.SetTPC(13, p.MustEntry("disp"))
	m.SetT(13, 16)
	m.Start(p.MustEntry("emu"))
	return m
}

// sectionBody returns where the body of snap's section tag starts and
// ends.
func sectionBody(t testing.TB, snap []byte, tag string) (start, end int) {
	t.Helper()
	doc, err := state.Split(snap)
	if err != nil {
		t.Fatal(err)
	}
	at := len(doc.Header)
	for _, sec := range doc.Sections {
		if sec.Tag == tag {
			return at + 8, at + 8 + len(sec.Body)
		}
		at += 8 + len(sec.Body)
	}
	t.Fatalf("no section %q", tag)
	return 0, 0
}

// restoreSeeds are FuzzRestore's base snapshots: restoreMachine at two
// cycle counts, one early (the display still filling) and one later, and
// the later one rendered as format version 1.
func restoreSeeds(t testing.TB) [][]byte {
	m := restoreMachine(t, true)
	m.RunCycles(300)
	early := m.Snapshot()
	m.RunCycles(3000)
	late := m.Snapshot()
	v1, err := statetest.VersionOne(late, m.Mem().Config().StorageWords, memory.PageWords)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{early, late, v1}
}

// TestRestoreBoundsCounts: a snapshot whose MEMS page-map count, or whose
// Display's pending-block count, claims 2^20 entries over none, or whose
// MDAT claims 2^31 storage pages, is refused before anything is sized by
// the count, the refused Restore allocates under 1 MiB, and the machine
// still runs.
func TestRestoreBoundsCounts(t *testing.T) {
	src := snapMachine(t, Config{})
	src.RunCycles(100)
	le := binary.LittleEndian
	// MEMS: storage-pipe release (8), base registers (32x4), per-task MD
	// state (16x19), the fault latch (6) and counters (7x8), then the
	// page map's count, the last field of a machine with an empty map.
	const pageCount = 8 + 32*4 + 16*19 + 6 + 7*8
	mems := patchSection(t, src.Snapshot(), "MEMS", func(b []byte) {
		if len(b) != pageCount+4 || le.Uint32(b[pageCount:]) != 0 {
			t.Fatalf("MEMS is %d bytes, page map count %d: want an empty map", len(b), le.Uint32(b[pageCount:]))
		}
		le.PutUint32(b[pageCount:], 1<<20)
	})
	// DEVS: the device count, the Display's task and base register, then
	// its pending-block count; the seed machine's queue is empty.
	disp := restoreMachine(t, true)
	disp.RunCycles(2)
	devs := patchSection(t, disp.Snapshot(), "DEVS", func(b []byte) {
		if le.Uint32(b[6:]) != 0 {
			t.Fatalf("display queue holds %d blocks, want none", le.Uint32(b[6:]))
		}
		le.PutUint32(b[6:], 1<<20)
	})
	// MDAT: the count of storage pages that hold data comes first.
	mdat := patchSection(t, src.Snapshot(), "MDAT", func(b []byte) { le.PutUint32(b, 1<<31) })
	for _, c := range []struct {
		name string
		snap []byte
		m    *Machine
	}{
		{"page map", mems, snapMachine(t, Config{})},
		{"display queue", devs, restoreMachine(t, false)},
		{"storage pages", mdat, snapMachine(t, Config{})},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.m.Restore(c.snap)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count of 2^20 over no entries restored", c.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: refused Restore allocated %d bytes", c.name, n)
		}
		c.m.RunCycles(1000) // must not panic
	}
}

// FuzzRestore lays an (offset, patch) pair over one of restoreSeeds and
// restores the result onto a fresh machine of the same shape. Restore
// must never panic; a snapshot it accepts must leave a machine whose own
// snapshot restores onto another fresh machine to the same bytes, and
// which runs 1000 cycles without panicking. The version-1 seed's re-
// snapshot is version 2, so its round trip crosses the versions. Patches rather than whole
// documents keep each input small: a whole 46 KB snapshot per input
// slows the fuzzer to a crawl.
//
// The seeds' microstore and decode table are restoreImage's, so an
// unpatched run restores by pointing at the shared image and a patch
// inside either run takes the copy-on-write path; two seed inputs patch
// each run. After every input, the image and the all-HALT store every
// machine starts on must still hold the words they were built from, with
// their coding's checksum, and every shared decode table its rows
// (ifu.CheckTables). TestMain's CheckImages also re-derives every
// decoded form, once the suite has run.
func FuzzRestore(f *testing.F) {
	seeds := restoreSeeds(f)
	img, p := restoreImage(f)
	halt := *haltStore
	intact := func(t *testing.T) {
		for _, c := range []struct {
			s     *microstore
			words *[microcode.StoreSize]microcode.Word
		}{{img.store, &p.Words}, {haltStore, &halt.word}} {
			if c.s.word != *c.words || crc32.ChecksumIEEE(c.s.enc[:]) != c.s.sum {
				t.Fatal("a restore wrote a shared microstore")
			}
		}
		if err := ifu.CheckTables(); err != nil {
			t.Fatal(err)
		}
	}
	f.Add(uint8(0), uint32(0), []byte{})
	f.Add(uint8(1), uint32(0), []byte{})
	f.Add(uint8(0), uint32(6), []byte("CONF"))
	f.Add(uint8(1), uint32(40), []byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(uint8(2), uint32(0), []byte{})
	// A valid word over a HALT word of the UIMS run, and a MEMBASE byte
	// in an invalid row near the end of the IFU decode table.
	uims, _ := sectionBody(f, seeds[1], "UIMS")
	word := binary.LittleEndian.AppendUint64(nil, microcode.Word{ALUOp: uint8(microcode.ALUAplus1),
		ASel: microcode.ASelT, LC: microcode.LCLoadT}.Encode())
	f.Add(uint8(1), uint32(uims+8*0x200), word)
	_, ifus := sectionBody(f, seeds[1], "IFUS")
	const emptyRow = 11 // valid, handler, operands, wide, MEMBASE flag and value, a 0-byte name
	f.Add(uint8(1), uint32(ifus-emptyRow*16+6), []byte{5})
	f.Fuzz(func(t *testing.T, seed uint8, off uint32, patch []byte) {
		defer intact(t)
		snap := bytes.Clone(seeds[int(seed)%len(seeds)])
		copy(snap[int(off%uint32(len(snap))):], patch)
		m := restoreMachine(t, false)
		if m.Restore(snap) != nil {
			return
		}
		again := m.Snapshot()
		fresh := restoreMachine(t, false)
		if err := fresh.Restore(again); err != nil {
			t.Fatalf("the re-snapshot of an accepted snapshot is refused: %v", err)
		}
		if !bytes.Equal(fresh.Snapshot(), again) {
			t.Fatal("the re-snapshot of an accepted snapshot does not restore to the same bytes")
		}
		m.RunCycles(1000)
	})
}

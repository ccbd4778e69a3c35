package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dorado/internal/ifu"
	"dorado/internal/microcode"
)

// TestSharedImage: a new machine points at the all-HALT store; NewImage
// returns one store per content and refuses a word Restore refuses;
// Install, a Load of the same words and a Restore of a snapshot holding
// them all point a machine at the image's store. A machine's first write
// that differs, by SetIM, Load or a Restore whose run matches no image,
// copies the store, flushes the translator and leaves the image and the
// other machines as they were; each copy snapshots to the bytes it was
// given.
func TestSharedImage(t *testing.T) {
	img, p := restoreImage(t)
	var rows [256]ifu.Entry
	rows[0] = ifu.Entry{Valid: true, Handler: 0x10, Name: "NOP"}
	rows[1] = ifu.Entry{Valid: true, Handler: 0x20, Operands: 2, Wide: true, Name: "LIW"}
	if again, err := NewImage(&p.Words, &rows); err != nil || again.store != img.store || again.table != img.table {
		t.Fatalf("NewImage of the same content built another image (%v)", err)
	}
	bad := p.Words
	bad[0x300] = microcode.Decode(uint64(1)<<34 - 1)
	if bad[0x300].Validate() == nil {
		t.Fatal("the all-ones word validates; pick another invalid word")
	}
	if _, err := NewImage(&bad, &rows); err == nil {
		t.Fatal("NewImage accepted a word Restore refuses")
	}

	if m := restoreMachine(t, false); m.im != haltStore {
		t.Fatal("a new machine does not point at the all-HALT store")
	}
	src := restoreMachine(t, true)
	if src.im != img.store {
		t.Fatal("Install did not point the machine at the image's store")
	}
	loaded := restoreMachine(t, false)
	if loaded.Load(&p.Words); loaded.im != img.store {
		t.Fatal("a Load of the image's words did not point at its store")
	}
	src.RunCycles(300)
	snap := src.Snapshot()
	revived := restoreMachine(t, false)
	if err := revived.Restore(snap); err != nil || revived.im != img.store {
		t.Fatalf("a Restore of the image's run did not point at its store (%v)", err)
	}

	// Copy on a differing write: SetIM on a translated machine.
	tr, err := New(Config{Translation: Translation{Enable: true}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Install(img)
	tr.Start(p.MustEntry("emu"))
	tr.RunCycles(100)
	flushes := tr.TranslationStats().Invalidations
	w := microcode.Word{ALUOp: uint8(microcode.ALUAplus1), ASel: microcode.ASelT, LC: microcode.LCLoadT}
	if tr.SetIM(0x200, p.Words[0x200]); tr.im != img.store || tr.TranslationStats().Invalidations != flushes {
		t.Fatal("rewriting a word the image holds copied the store or flushed the translator")
	}
	tr.SetIM(0x200, w)
	if tr.im == img.store || tr.im.shared || tr.IM(0x200) != w {
		t.Fatal("SetIM did not copy the shared store")
	}
	if tr.TranslationStats().Invalidations != flushes+1 {
		t.Fatal("SetIM over a shared store did not flush the translator")
	}
	if src.IM(0x200) != p.Words[0x200] || img.store.word[0x200] != p.Words[0x200] {
		t.Fatal("SetIM on one machine wrote another's microstore")
	}
	if tr.Load(&p.Words); tr.im != img.store {
		t.Fatal("a Load of the image's words did not return to its store")
	}

	// Copy on a Restore whose UIMS run, or IFU table, matches no image.
	uims, _ := sectionBody(t, snap, "UIMS")
	_, ifus := sectionBody(t, snap, "IFUS")
	patched := bytes.Clone(snap)
	binary.LittleEndian.PutUint64(patched[uims+8*0x200:], w.Encode())
	patched[ifus-11*16+6] = 5 // row 240's MEMBASE value
	for _, onto := range []*Machine{restoreMachine(t, false), revived} {
		if err := onto.Restore(patched); err != nil {
			t.Fatal(err)
		}
		if onto.im == img.store || onto.im.shared || onto.IM(0x200) != w || onto.IM(0x201) != p.Words[0x201] {
			t.Fatal("a Restore of a run no image holds did not copy the store")
		}
		if !bytes.Equal(onto.Snapshot(), patched) {
			t.Fatal("the copied store and table do not snapshot to the restored bytes")
		}
	}
	if err := revived.Restore(snap); err != nil || revived.im != img.store {
		t.Fatalf("a Restore onto a copied store did not return to the image (%v)", err)
	}
	for _, err := range []error{CheckImages(), ifu.CheckTables()} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

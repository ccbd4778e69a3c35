package emulator

import "dorado/internal/masm"

// SystemImage is the entire emulator suite in one microstore — the way the
// production Dorado's writable store held all of its microcode at once
// (§7's "essentially full microstore" was the emulators plus I/O handlers
// plus BitBlt). Every component keeps its own pages; symbols carry a
// component prefix ("mesa/boot", "lisp/l.callf", ...). A machine loaded
// with the image can boot any of the four languages by installing that
// language's view.
type SystemImage struct {
	// Micro is the combined microstore (shared by every view below).
	Micro *masm.Program
	// Mesa, BCPL, Lisp, Smalltalk are the per-language views: decode
	// tables and boot addresses resolved against the combined image.
	Mesa, BCPL, Lisp, Smalltalk *Program
}

// BuildSystemImage splices the four bundled emulators into a single
// microstore image. Its decoded microstore is built once per process:
// the four views, and every later call's, point machines at the same
// shared store, each view with its own shared decode table.
func BuildSystemImage() (*SystemImage, error) {
	combined := masm.EmptyProgram()
	for _, p := range []*Program{Mesa(), BCPL(), Lisp(), Smalltalk()} {
		var err error
		if combined, err = masm.SpliceAs(combined, p.Micro, p.Name+"/"); err != nil {
			return nil, &InstallError{Emulator: p.Name, Stage: "splice", Err: err}
		}
	}
	img := &SystemImage{Micro: combined}
	var err error
	if img.Mesa, err = finishMesa(combined, "mesa/"); err != nil {
		return nil, err
	}
	if img.BCPL, err = finishBCPL(combined, "bcpl/"); err != nil {
		return nil, err
	}
	if img.Lisp, err = finishLisp(combined, "lisp/"); err != nil {
		return nil, err
	}
	if img.Smalltalk, err = finishSmalltalk(combined, "smalltalk/"); err != nil {
		return nil, err
	}
	return img, nil
}

package bench

import (
	"fmt"
	"math/rand"

	"dorado/internal/emulator"
	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// E7Placement reproduces §7's placement result: "the automatic placement
// used 99.9% of the available memory when called upon to place an
// essentially full microstore" — despite the page structure, the even/odd
// branch pairs, and the subroutine-continuation constraint.
//
// The experiment generates synthetic microcode with the statistics of real
// handler code (short routines, ~40% busy FF fields, conditional branches,
// calls to shared subroutines) until the placer reports the store full,
// then reports how much of the store the last successful placement used.
// The real emulators' placement statistics are reported alongside.
func E7Placement() Table {
	const title = "Microstore placement utilization"
	const claim = `"the automatic placement used 99.9% of the available memory when called upon to place an essentially full microstore" (§7)`

	var routines int
	build := func(n int) *masm.Builder {
		r := rand.New(rand.NewSource(1980))
		b := masm.NewBuilder()
		b.EmitAt("sub.shared", masm.I{FF: microcode.FFGetQ, LC: microcode.LCLoadT, Flow: masm.Return()})
		for i := 0; i < n; i++ {
			emitSyntheticRoutine(b, r, i)
		}
		b.Halt()
		return b
	}
	// Grow until placement fails, then bisect down to the largest success.
	lo, hi := 1, 2
	for {
		if _, err := build(hi).Assemble(); err != nil {
			break
		}
		lo = hi
		hi *= 2
		if hi > 4096 {
			break
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if _, err := build(mid).Assemble(); err != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	routines = lo
	p, err := build(routines).Assemble()
	if err != nil {
		return fail("E7", title, err)
	}
	st := p.Stats

	rows := []Row{
		{"synthetic full store", "99.9%", pct(st.UtilizationStore),
			fmt.Sprintf("%d routines, %d words placed of %d", routines, st.WordsUsed, microcode.StoreSize)},
		{"packing of touched pages", "(not reported)", pct(st.UtilizationTouched),
			fmt.Sprintf("largest same-page cluster %d words", st.LargestCluster)},
	}
	// Real microcode placement, for context.
	for _, ep := range []struct {
		name string
		prog *emulator.Program
	}{
		{"Mesa emulator", emulator.Mesa()},
		{"BCPL emulator", emulator.BCPL()},
		{"Lisp emulator", emulator.Lisp()},
		{"Smalltalk emulator", emulator.Smalltalk()},
	} {
		s := ep.prog.Micro.Stats
		rows = append(rows, Row{ep.name, "", pct(s.UtilizationTouched),
			fmt.Sprintf("%d µinsts in %d pages", s.Instructions, s.PagesTouched)})
	}
	// The composed production suite (all four emulators in one store).
	if img, err := emulator.BuildSystemImage(); err == nil {
		s := img.Micro.Stats
		rows = append(rows, Row{"all emulators, one image", "", pct(s.UtilizationTouched),
			fmt.Sprintf("%d words in %d pages (spliced)", s.WordsUsed, s.PagesTouched)})
	}
	pass := st.UtilizationStore > 0.97
	return Table{ID: "E7", Title: title, Claim: claim, Rows: rows, Pass: pass}
}

// emitSyntheticRoutine writes one handler-shaped routine: 4–12 straight
// instructions with the FF busy about 40% of the time, a conditional
// branch about half the time, and an occasional call to the shared
// subroutine.
func emitSyntheticRoutine(b *masm.Builder, r *rand.Rand, id int) {
	name := fmt.Sprintf("r%d", id)
	n := 4 + r.Intn(9)
	b.Label(name)
	for j := 0; j < n; j++ {
		i := masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT}
		if r.Float64() < 0.4 {
			i.FF = microcode.FFGetCount // an arbitrary FF op: successor must share the page
			i.LC = microcode.LCLoadRM
			i.R = uint8(r.Intn(8))
			i.A = microcode.ASelRM
			i.ALU = microcode.ALUA
		}
		b.Emit(i)
	}
	if r.Float64() < 0.3 {
		b.Emit(masm.I{Flow: masm.Call("sub.shared")})
	}
	if r.Float64() < 0.5 {
		els, then := name+".e", name+".t"
		b.Emit(masm.I{Flow: masm.Branch(microcode.Condition(r.Intn(3)), els, then)})
		b.EmitAt(els, masm.I{Flow: masm.Goto(name + ".x")})
		b.EmitAt(then, masm.I{ALU: microcode.ALUAplus1, A: microcode.ASelT, LC: microcode.LCLoadT})
		b.EmitAt(name+".x", masm.I{Flow: masm.Goto(name + ".end")})
	}
	b.EmitAt(name+".end", masm.I{FF: microcode.FFHalt, Flow: masm.Self()})
}

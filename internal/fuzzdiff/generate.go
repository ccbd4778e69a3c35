package fuzzdiff

import (
	"fmt"
	"math/rand"

	"dorado/internal/masm"
	"dorado/internal/microcode"
)

// generate builds a random-but-valid microprogram: n random task-0
// instructions under label "main" (closed into an endless loop) plus the
// fixed "svc" device-service routine every attached task runs. Validity is
// delegated to the assembler: a draw the assembler rejects (inexpressible
// constant placement, branch targets that cannot share a page, FF field
// conflicts) is simply redrawn, so every returned program passes
// microcode.Word.Validate and anything it does is something real microcode
// could do.
func generate(seed int64, n int) (*masm.Program, error) {
	rng := rand.New(rand.NewSource(seed))
	const attempts = 100
	for a := 0; a < attempts; a++ {
		p, err := emit(rng, n).Assemble()
		if err == nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fuzzdiff: seed %d: no assemblable program in %d attempts", seed, attempts)
}

// Flow kinds drawn for each generated instruction.
const (
	kSeq = iota
	kGoto
	kBranch
	kCall
	kReturn
)

func emit(rng *rand.Rand, n int) *masm.Builder {
	bl := masm.NewBuilder()
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("i%d", i)
	}
	labels[0] = "main"

	// Draw flow kinds first: branch placement is constrained (§5.5 — the
	// false target is the physically next word at an even address, the true
	// target an odd word in the same page), so consecutive branches are
	// unplaceable and are never drawn.
	kinds := make([]int, n)
	branches, calls := 0, 0
	for i := 0; i < n-1; i++ {
		switch rng.Intn(20) {
		case 0, 1, 2:
			kinds[i] = kGoto
		case 3, 4, 5:
			// Branch placement pins three words (branch, false target, true
			// target) into one page; cap the count so the pin chains the
			// assembler must solve stay well under the 16-word page size.
			if branches < 3 && (i == 0 || kinds[i-1] != kBranch) {
				kinds[i] = kBranch
				branches++
			}
		case 6:
			if calls < 2 {
				kinds[i] = kCall
				calls++
			}
		case 7:
			kinds[i] = kReturn
		}
	}
	// Assign each branch a unique true target that no other placement rule
	// already pins: not its own fall-through (identical targets), not the
	// fall-through of another branch (pinned even; true targets are odd),
	// and not shared with another branch (two branches cannot pin the same
	// word to two addresses).
	thenTargets := make([]string, n)
	taken := make([]bool, n)
	for i := 0; i < n-1; i++ {
		if kinds[i] != kBranch {
			continue
		}
		var cands []int
		for j := 0; j < n; j++ {
			// A true target is pinned to an odd word right after the branch's
			// fall-through; exclude labels some other rule already pins: the
			// fall-through of any branch (even word) or the continuation of a
			// call (physically after the call).
			if j == i+1 || taken[j] || (j > 0 && (kinds[j-1] == kBranch || kinds[j-1] == kCall)) {
				continue
			}
			cands = append(cands, j)
		}
		if len(cands) == 0 {
			kinds[i] = kSeq
			continue
		}
		j := cands[rng.Intn(len(cands))]
		taken[j] = true
		thenTargets[i] = labels[j]
	}

	target := func() string { return labels[rng.Intn(len(labels))] }
	for i := 0; i < n; i++ {
		inst := randInst(rng)
		switch {
		case i == n-1:
			inst.Flow = masm.Goto("main") // close the main loop
		case kinds[i] == kGoto:
			inst.Flow = masm.Goto(target())
		case kinds[i] == kBranch:
			inst.Flow = masm.Branch(conds[rng.Intn(len(conds))], "", thenTargets[i])
		case kinds[i] == kCall:
			inst.Flow = masm.Call(target())
		case kinds[i] == kReturn:
			inst.Flow = masm.Return()
		}
		bl.EmitAt(labels[i], inst)
	}
	// The service routine: drain one word, store it through RM[1], advance
	// the pointer, block. Identical to the §7 slow-I/O inner loop shape.
	bl.EmitAt("svc", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	bl.Emit(masm.I{A: microcode.ASelStore, R: 1, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("svc")})
	// The fast-I/O service routine (the FastIO and Devices shapes): command the next
	// block at T+RM[2], advance the pointer, block — the two-instruction
	// display idiom of §7. Emitted unconditionally so a seed generates the
	// same program whether or not fast-I/O devices are attached.
	bl.EmitAt("fio", masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 2,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, FF: microcode.FFOutput})
	bl.Emit(masm.I{Block: true, Flow: masm.Goto("fio")})
	return bl
}

// Weighted draw tables. FFHalt is excluded (it would end runs early, not
// because it is unsafe) and so is FFWriteTPC (it rewrites service-task PCs,
// collapsing most runs into idle loops); everything else reachable from the
// FF catalog is fair game, including IFU restarts and stack traffic.
var (
	aSels = []microcode.ASelect{
		microcode.ASelRM, microcode.ASelRM, microcode.ASelRM,
		microcode.ASelT, microcode.ASelT, microcode.ASelT,
		microcode.ASelMD,
		microcode.ASelFetch,
		microcode.ASelStore,
	}
	bSels = []microcode.BSelect{
		microcode.BSelRM, microcode.BSelRM,
		microcode.BSelT, microcode.BSelT,
		microcode.BSelQ,
		microcode.BSelMD,
	}
	conds = []microcode.Condition{
		microcode.CondALUZero, microcode.CondALUNeg, microcode.CondCarry,
		microcode.CondCountNZ, microcode.CondCountNZ, // loops are common
		microcode.CondOverflow, microcode.CondStackError,
		microcode.CondIOAtten, microcode.CondMB,
	}
)

// randFF draws an FF operation (never a constant byte; constants go through
// HasConst).
func randFF(rng *rand.Rand) uint8 {
	switch rng.Intn(16) {
	case 0:
		return microcode.FFCountBase + uint8(rng.Intn(16))
	case 1:
		return microcode.FFMemBaseBase + uint8(rng.Intn(4))
	case 2:
		return microcode.FFRotBase + uint8(rng.Intn(32))
	case 3:
		return microcode.FFRMDestBase + uint8(rng.Intn(16))
	case 4:
		return []uint8{
			microcode.FFShiftNoMask, microcode.FFShiftMaskZ, microcode.FFShiftMaskMD,
			microcode.FFALULsh, microcode.FFALURsh,
			microcode.FFMulStep, microcode.FFDivStep,
		}[rng.Intn(7)]
	case 5:
		return []uint8{
			microcode.FFPutRBase, microcode.FFPutStackPtr, microcode.FFPutShiftCtl,
			microcode.FFPutCount, microcode.FFPutQ, microcode.FFPutALUFM,
			microcode.FFPutLink, microcode.FFPutBaseLo, microcode.FFPutBaseHi,
			microcode.FFPutMemBase,
		}[rng.Intn(10)]
	case 6:
		return []uint8{
			microcode.FFGetRBase, microcode.FFGetStackPtr, microcode.FFGetMemBase,
			microcode.FFGetShiftCtl, microcode.FFGetCount, microcode.FFGetQ,
			microcode.FFGetALUFM, microcode.FFGetLink,
		}[rng.Intn(8)]
	case 7:
		return []uint8{
			microcode.FFSetMB, microcode.FFClearMB, microcode.FFStackReset,
			microcode.FFProbeMD, microcode.FFFlushCache,
		}[rng.Intn(5)]
	case 8:
		if rng.Intn(4) == 0 {
			// Rare: restart the IFU (exercises its prefetcher and snapshot
			// sections) or wake a bare task.
			return []uint8{microcode.FFIFUReset, microcode.FFReadyB}[rng.Intn(2)]
		}
		return microcode.FFNop
	default:
		return microcode.FFNop
	}
}

// randConst draws one of the §5.9-expressible 16-bit constants (one byte
// free, the other all-zeros or all-ones).
func randConst(rng *rand.Rand) uint16 {
	b := uint16(rng.Intn(256))
	switch rng.Intn(4) {
	case 0:
		return b
	case 1:
		return 0xFF00 | b
	case 2:
		return b << 8
	default:
		return b<<8 | 0x00FF
	}
}

// randInst draws everything but the flow (the caller owns placement).
func randInst(rng *rand.Rand) masm.I {
	inst := masm.I{
		R:   uint8(rng.Intn(16)),
		ALU: microcode.ALUFn(rng.Intn(16)),
		A:   aSels[rng.Intn(len(aSels))],
		B:   bSels[rng.Intn(len(bSels))],
		LC:  microcode.LoadControl(rng.Intn(4)),
	}
	if rng.Intn(8) == 0 {
		inst.Block = true
	}
	if rng.Intn(4) == 0 {
		// The constant scheme owns both the B select and the FF byte.
		inst.B = 0
		inst.Const, inst.HasConst = randConst(rng), true
	} else {
		inst.FF = randFF(rng)
	}
	return inst
}

package core

import "dorado/internal/microcode"

// decoded is the predecoded form of one microstore word: every per-cycle
// bit extraction exec would otherwise perform on the packed 34-bit Word —
// the NextControl decode, the FF classification, the §5.9 constant, the
// hold predicates — done once, when the word is written (microstore.set).
//
// The real Dorado splits instruction decode across pipeline stages so that
// by the time an instruction executes, its control lines are already
// resolved (§5.4–5.5). The simulator's analogue is this struct: the hot
// loop executes straight off the precomputed fields. The reference
// interpreter (Config.Reference) instead re-derives a decoded from the
// stored Word every cycle, which is the seed simulator's behavior; the two
// paths share exec and are proved cycle-for-cycle identical by the
// differential tests.
type decoded struct {
	op     microcode.NextOp // resolved NextControl (kind, word, condition)
	constB uint16           // the §5.9 constant when isConstB

	aSel  microcode.ASelect
	bSel  microcode.BSelect
	raddr uint8 // RAddr, pre-masked to 4 bits
	aluOp uint8 // ALUFM index, pre-masked to 4 bits
	ff    uint8 // raw FF byte (address bits for long transfers/dispatches)
	next  uint8 // raw NextControl byte (diagnostics only)
	ffop  uint8 // FF operation to execute; FFNop when FF is data

	stackDelta int8 // signed STACKPTR adjustment when the stack modifier is on
	ffMemBase  int8 // same-instruction FF MEMBASE override (0..31), or -1
	ffRMDest   int8 // FF RM-write redirection low nibble (0..15), or -1

	block       bool
	isConstB    bool // B is an FF constant; bVal = constB with no bus read
	usesMD      bool // holds while the task's MD is not ready (§5.7)
	usesIFUData bool // holds while the IFU has no operand
	ifuJump     bool // NextControl is IFUJUMP (holds until dispatch ready)
	startsMem   bool // ASel starts a memory reference
	isStore     bool // ...and that reference is a write
	loadsT      bool
	loadsRM     bool
}

// decodeWord flattens one microinstruction. It is the single point of
// truth for both execution paths: the microstore stores its result, the
// reference interpreter calls it every cycle.
func decodeWord(w microcode.Word) decoded {
	op := w.NextOp()
	ffop := w.FFOp()
	d := decoded{
		op:          op,
		aSel:        w.ASel,
		bSel:        w.BSel,
		raddr:       w.RAddr & 0xF,
		aluOp:       w.ALUOp & 0xF,
		ff:          w.FF,
		next:        w.Next,
		ffop:        ffop,
		stackDelta:  w.StackDelta(),
		ffMemBase:   -1,
		ffRMDest:    -1,
		block:       w.Block,
		usesMD:      w.UsesMD(),
		usesIFUData: w.UsesIFUData(),
		ifuJump:     op.Kind == microcode.NextIFUJump,
		startsMem:   w.ASel.StartsMemRef(),
		isStore:     w.ASel.IsStore(),
		loadsT:      w.LC.LoadsT(),
		loadsRM:     w.LC.LoadsRM(),
	}
	if w.BSel.IsConst() {
		d.isConstB = true
		d.constB = w.BSel.ConstValue(w.FF)
	}
	if ffop >= microcode.FFMemBaseBase && ffop < microcode.FFMemBaseBase+32 {
		d.ffMemBase = int8(ffop - microcode.FFMemBaseBase)
	}
	if ffop >= microcode.FFRMDestBase && ffop < microcode.FFRMDestBase+16 {
		d.ffRMDest = int8(ffop & 0xF)
	}
	return d
}

// microstore is the writable microstore: each word as written and its
// decoded form, written only by set (and New's fill with halt). The words
// have an array of their own so that Load compares an unchanged image as
// one block: Go compares two Words field by field.
type microstore struct {
	word [microcode.StoreSize]microcode.Word
	dec  [microcode.StoreSize]decoded
}

// An unloaded microstore holds halt everywhere; New copies haltDecoded,
// decoded once, rather than decoding halt 4,096 times.
var halt, haltDecoded = microcode.Word{FF: microcode.FFHalt}, decodeWord(halt)

// set installs w at a, decoding it only when it differs from the stored
// word, and reports whether it did; a caller that sees true flushes the
// translator, whose blocks may have fused the old word.
func (s *microstore) set(a microcode.Addr, w microcode.Word) bool {
	if s.word[a] == w {
		return false
	}
	s.word[a], s.dec[a] = w, decodeWord(w)
	return true
}

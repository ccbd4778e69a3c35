package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"dorado/internal/ifu"
	"dorado/internal/microcode"
)

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

// microstore is a writable microstore: each word as written, its
// decoded form, and its UIMS coding, written only by set. The words have
// an array of their own so that Load compares an unchanged image as one
// block: Go compares two Words field by field. The coding is the run
// Snapshot writes, so a snapshot copies it in one piece and a restore
// compares it in one.
//
// A shared microstore (an Image's, or the all-HALT one every machine
// starts on) is immutable: machines point at it, and a machine copies it
// into a store of its own at its first write that differs (Machine.own),
// the rule storage pages follow too.
type microstore struct {
	word [microcode.StoreSize]microcode.Word
	dec  [microcode.StoreSize]decoded
	enc  [8 * microcode.StoreSize]byte // each word's Encode, a little-endian U64

	shared bool
	sum    uint32 // a shared store's checksum of enc, for CheckImages
}

// set installs w at a, which must differ from the stored word.
func (s *microstore) set(a microcode.Addr, w microcode.Word) {
	s.word[a], s.dec[a] = w, decodeWord(w)
	binary.LittleEndian.PutUint64(s.enc[8*int(a):], w.Encode())
}

// stores holds every shared microstore, the all-HALT one first, so Load
// and Restore find one by its content. Only shareStore adds to it, and it
// adds only a store whose words none of them holds.
var (
	stores   atomic.Pointer[[]*microstore]
	storesMu sync.Mutex
)

// haltStore is the microstore of a machine nothing has loaded: halt at
// every address. New points every machine at it.
var haltStore = func() *microstore {
	var words [microcode.StoreSize]microcode.Word
	for i := range words {
		words[i] = microcode.Word{FF: microcode.FFHalt}
	}
	s, err := shareStore(&words)
	if err != nil {
		panic(err)
	}
	return s
}()

// shareStore returns the shared microstore holding words, building and
// adding it the first time those words are asked for. It refuses a word
// microcode.Word.Validate rejects, as Restore would.
func shareStore(words *[microcode.StoreSize]microcode.Word) (*microstore, error) {
	storesMu.Lock()
	defer storesMu.Unlock()
	var list []*microstore
	if p := stores.Load(); p != nil {
		list = *p
	}
	for _, s := range list {
		if s.word == *words {
			return s, nil
		}
	}
	s := &microstore{shared: true}
	for a, w := range words {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("core: microstore word %v: %w", microcode.Addr(a), err)
		}
		s.set(microcode.Addr(a), w)
	}
	s.sum = crc32.ChecksumIEEE(s.enc[:])
	list = append(list[:len(list):len(list)], s)
	stores.Store(&list)
	return s, nil
}

// sharedStores returns every shared microstore.
func sharedStores() []*microstore { return *stores.Load() }

// Image is a microstore image and an IFU decode table built once and
// shared: every machine that installs it (Install) points at both, and
// copies one at its first write that differs, so a machine that runs a
// bundled emulator holds neither. Nothing writes to an Image.
type Image struct {
	store *microstore
	table *ifu.Table
}

// NewImage returns the shared image of a microstore and decode table,
// words as Load installs them and table as ifu.NewTable does. A process
// holds one shared microstore per content and one table per content, so
// images built from the same words share their store. It refuses a word
// Restore would refuse and a row SetEntry would.
func NewImage(words *[microcode.StoreSize]microcode.Word, table *[256]ifu.Entry) (*Image, error) {
	s, err := shareStore(words)
	if err != nil {
		return nil, err
	}
	t, err := ifu.NewTable(table)
	if err != nil {
		return nil, err
	}
	return &Image{store: s, table: t}, nil
}

// CheckImages reports a shared microstore that something wrote: one whose
// coding no longer has the checksum it was built with, or whose decoded
// forms or coding no longer follow from its words. Nothing may write a
// shared microstore; test suites call it, with ifu.CheckTables, once
// they have run. A word like the one before it is checked against that
// word's decoded form rather than decoded again, since a store is mostly
// runs of HALT.
func CheckImages() error {
	for _, s := range sharedStores() {
		if crc32.ChecksumIEEE(s.enc[:]) != s.sum {
			return fmt.Errorf("core: a shared microstore's coding was written")
		}
		var want decoded
		for a, w := range s.word {
			if a == 0 || w != s.word[a-1] {
				want = decodeWord(w)
			}
			if binary.LittleEndian.Uint64(s.enc[8*a:]) != w.Encode() || s.dec[a] != want {
				return fmt.Errorf("core: a shared microstore's word %v was written", microcode.Addr(a))
			}
		}
	}
	return nil
}

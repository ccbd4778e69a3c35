// Package dorado is a cycle-level reproduction of the Xerox PARC Dorado
// processor, the machine described in Lampson & Pier, "A Processor for a
// High-Performance Personal Computer" (7th Symposium on Computer
// Architecture, 1980; Xerox PARC CSL-81-1).
//
// The package is a facade over the subsystem packages:
//
//	internal/microcode  the 34-bit microinstruction set (the architecture)
//	internal/masm       the microassembler and page placer
//	internal/memory     cache + storage + map + fast I/O
//	internal/ifu        the instruction fetch unit
//	internal/device     I/O controller models (disk, display, ...)
//	internal/core       the processor: 16 tasks, Hold, data section
//	internal/emulator   Mesa/BCPL/Lisp/Smalltalk byte-code emulators
//	internal/bitblt     the BitBlt raster operation
//	internal/bench      the paper's evaluation, experiment by experiment
//
// Quickstart — run a Mesa byte-code program:
//
//	sys, _ := dorado.New(dorado.WithLanguage(dorado.Mesa))
//	asm := sys.Asm()
//	asm.OpB("LIB", 2).OpB("LIB", 40).Op("ADD").Op("HALT")
//	sys.Boot(asm)
//	sys.Run(10_000)
//	fmt.Println(sys.Stack()) // [42]
//
// New takes functional options: WithLanguage picks an emulator, WithConfig
// a machine configuration, WithMetrics a cycle-level observability
// recorder (Prometheus and Chrome-trace exportable, see WritePrometheus /
// WriteChromeTrace), WithTracer a per-cycle tracer, WithDevice an I/O
// controller. With no options New builds a bare microcode-level machine;
// see examples/ for complete programs and cmd/benchtab for the paper's
// evaluation tables.
package dorado

import (
	"fmt"

	"dorado/internal/bench"
	"dorado/internal/bitblt"
	"dorado/internal/core"
	"dorado/internal/device"
	"dorado/internal/emulator"
	"dorado/internal/lispc"
	"dorado/internal/masm"
	"dorado/internal/mesac"
	"dorado/internal/microcode"
	"dorado/internal/stc"
)

// Re-exported machine types. The zero Config is the Dorado as built:
// 60 ns cycle, 4 K-word cache, 8-cycle storage RAMs, all ablations off.
type (
	// Machine is the Dorado processor with its memory system and IFU.
	Machine = core.Machine
	// Config assembles a Machine.
	Config = core.Config
	// Options select the paper's design-alternative ablations.
	Options = core.Options
	// Stats counts processor activity.
	Stats = core.Stats
	// Device is the hardware half of an I/O controller.
	Device = device.Device
	// Builder assembles microcode programs.
	Builder = masm.Builder
	// MicroProgram is a placed microstore image.
	MicroProgram = masm.Program
	// Asm assembles byte-code programs for an emulator.
	Asm = emulator.Asm
	// BitBltParams describes one raster operation.
	BitBltParams = bitblt.Params
	// Translation configures the superblock translator, which compiles
	// straight-line microcode runs into fused Go closures the first time
	// the machine reaches them, with identical simulated behavior. The
	// zero value leaves it off; WithConfig turns it on:
	//
	//	dorado.New(dorado.WithConfig(dorado.Config{Translation: dorado.Translation{Enable: true}}))
	//
	// EXPERIMENTS.md E-TRANS gives predecoded/translated time per cycle as
	// 1.43 on disk and 1.48 on BitBlt, but 0.99 on mesacalls and 0.92 on
	// the Mesa emulator: Mesa sessions gain nothing.
	Translation = core.Translation
	// TranslationStats counts translator activity (Machine.TranslationStats).
	TranslationStats = core.TranslationStats
	// Tracer receives one event per simulated cycle (see WithTracer).
	Tracer = core.Tracer
	// TraceEvent is one cycle's trace record.
	TraceEvent = core.TraceEvent
	// InstallError is the typed error emulator install paths return
	// (match with errors.As).
	InstallError = emulator.InstallError
)

// CycleNS is the machine cycle time in nanoseconds.
const CycleNS = core.CycleNS

// NewBuilder returns an empty microassembler.
func NewBuilder() *Builder { return masm.NewBuilder() }

// Language selects one of the four byte-code emulators of §7.
type Language int

// None marks a System with no emulator installed (a bare machine built by
// New without WithLanguage).
const None Language = -1

const (
	// Mesa is the compile-time-checked stack machine (loads/stores in 1–2
	// microinstructions).
	Mesa Language = iota
	// BCPL is the accumulator machine of the Alto lineage.
	BCPL
	// Lisp is the Interlisp-style machine: 32-bit tagged items, memory
	// stack, runtime checks.
	Lisp
	// Smalltalk is the dynamic-dispatch machine.
	Smalltalk
)

// String returns the language's display name ("Mesa", "BCPL", ...).
func (l Language) String() string {
	switch l {
	case None:
		return "None"
	case Mesa:
		return "Mesa"
	case BCPL:
		return "BCPL"
	case Lisp:
		return "Lisp"
	case Smalltalk:
		return "Smalltalk"
	}
	return fmt.Sprintf("Language(%d)", int(l))
}

// System is a machine built by New — with an emulator installed (the
// configuration a Dorado user saw) or bare (Language None). Metrics is the
// recorder attached via WithMetrics and Profiler the microarchitectural
// profiler attached via WithProfiler; each is nil when not requested.
type System struct {
	Machine  *Machine
	Language Language
	// Emulator is the language's assembled emulator, nil on a bare
	// System. Every System of one language shares it, so it is
	// read-only.
	Emulator *emulator.Program
	Metrics  *Metrics
	Profiler *Profiler
}

// Asm returns a byte-code assembler for the system's instruction set.
func (s *System) Asm() *Asm { return emulator.NewAsm(s.Emulator) }

// Boot loads the assembled byte program and installs the emulator: the
// first macroinstruction dispatches on the next Run.
func (s *System) Boot(a *Asm) error {
	if err := a.Install(s.Machine); err != nil {
		return err
	}
	s.Emulator.InstallOn(s.Machine)
	return nil
}

// Run executes up to maxCycles, returning true if the program halted.
func (s *System) Run(maxCycles uint64) bool { return s.Machine.Run(maxCycles) }

// Stack returns the hardware evaluation stack of the currently selected
// stack bank, bottom first (meaningful for Mesa and Smalltalk; Lisp keeps
// its stack in memory). STACKPTR is [stack:2][word:6] (§6.3.3): the word
// field is the depth, the bank bits select which of the four 64-word
// stacks the words come from.
func (s *System) Stack() []uint16 {
	sp := int(s.Machine.StackPtr())
	base := sp &^ (core.StackWords - 1)
	n := sp & (core.StackWords - 1)
	out := make([]uint16, n)
	for i := 1; i <= n; i++ {
		out[i-1] = s.Machine.Stack(base + i)
	}
	return out
}

// Acc returns the BCPL accumulator (task 0's T register).
func (s *System) Acc() uint16 { return s.Machine.T(0) }

// LispStack returns the Lisp memory evaluation stack as (tag, value)
// pairs, bottom first.
func (s *System) LispStack() [][2]uint16 { return emulator.LispStack(s.Machine) }

// DefineFunc declares a function header for CALL/SEND (entry byte PC and
// argument count) at the given global slot.
func (s *System) DefineFunc(slot, entryPC, nargs uint16) {
	emulator.DefineFunc(s.Machine, slot, entryPC, nargs)
}

// DefineLispFunc declares a Lisp function header with shallow-bound
// parameter symbols.
func (s *System) DefineLispFunc(slot, entryPC uint16, symbols []uint16) {
	emulator.DefineLispFunc(s.Machine, slot, entryPC, symbols)
}

// CompileMesa compiles the small Mesa-flavored source language (see
// internal/mesac for the grammar) to byte code runnable on a Mesa System.
func CompileMesa(src string) (*mesac.Program, error) { return mesac.Compile(src) }

// CompileLisp compiles s-expression source (see internal/lispc) to byte
// code runnable on a Lisp System.
func CompileLisp(src string) (*lispc.Program, error) { return lispc.Compile(src) }

// CompileSmalltalk compiles the object language (see internal/stc) to byte
// code plus an object-memory image for a Smalltalk System.
func CompileSmalltalk(src string) (*stc.Program, error) { return stc.Compile(src) }

// BootSource compiles src for the system's language (Mesa, Lisp, or
// Smalltalk) and boots it.
func (s *System) BootSource(src string) error {
	switch s.Language {
	case Mesa:
		p, err := mesac.Compile(src)
		if err != nil {
			return err
		}
		p.InstallOn(s.Machine)
		s.Emulator.InstallOn(s.Machine)
		return nil
	case Lisp:
		p, err := lispc.Compile(src)
		if err != nil {
			return err
		}
		p.InstallOn(s.Machine)
		s.Emulator.InstallOn(s.Machine)
		return nil
	case Smalltalk:
		p, err := stc.Compile(src)
		if err != nil {
			return err
		}
		// The object image is poked after booting so InstallOn's memory
		// initialization cannot clobber it.
		s.Emulator.InstallOn(s.Machine)
		p.InstallOn(s.Machine)
		return nil
	}
	return fmt.Errorf("%w %v (BCPL programs assemble via Asm)", ErrNoCompiler, s.Language)
}

// BuildSystemImage splices the four shared emulators into one microstore
// image (any language bootable from the same store, like the production
// machine's writable microstore).
func BuildSystemImage() (*emulator.SystemImage, error) { return emulator.BuildSystemImage() }

// NewBitBlt assembles the BitBlt microcode.
func NewBitBlt() (*bitblt.Programs, error) { return bitblt.Build() }

// Devices.

// NewDisk models the paper's 10 Mbit/s disk: a word every cyclesPerWord
// cycles, two words per wakeup.
func NewDisk(task int) *device.WordSource { return device.NewWordSource(task, 27, 2) }

// NewDisplay models the fast-I/O display; cyclesPerBlock=8 demands the
// full 530 Mbit/s storage bandwidth.
func NewDisplay(task int, m *Machine, cyclesPerBlock int) *device.Display {
	return device.NewDisplay(task, m.Mem(), cyclesPerBlock, 4)
}

// NewEthernet models a ≈3 Mbit/s serial link (the Alto Ethernet's rate).
func NewEthernet(task int) *device.WordSource { return device.NewWordSource(task, 89, 2) }

// Experiments returns the paper-reproduction experiment suite (see
// DESIGN.md for the index and EXPERIMENTS.md for recorded results).
func Experiments() []bench.Experiment { return bench.Experiments() }

// RunExperiments runs every experiment and returns the tables.
func RunExperiments() []bench.Table { return bench.All() }

// Microcode-level conveniences re-exported for examples and tools.

// Word is a decoded 34-bit microinstruction.
type Word = microcode.Word

// Addr is a 12-bit microstore address.
type Addr = microcode.Addr

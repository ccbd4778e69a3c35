// Dorado boots the simulated machine the way a user saw it: a language
// emulator on task 0 with the disk and display controllers live on their
// tasks, runs a demo byte-code program, and reports what the machine did —
// per-task processor shares, I/O bandwidths, memory behavior.
//
// Usage:
//
//	dorado [flags]
//
//	-lang mesa|bcpl|lisp|smalltalk   emulator to boot (default mesa)
//	-demo sum|fib|calls              byte-code demo program (default sum)
//	-source FILE                     compile and run a source file instead
//	                                 of a demo (Mesa, Lisp, or Smalltalk
//	                                 syntax per -lang)
//	-devices                         attach the disk and display controllers
//	-cycles N                        cycle limit (default 2000000)
//	-stats                           print full machine statistics
//	-save FILE                       write a machine snapshot after the run
//	-restore FILE                    restore a snapshot before running
//	                                 (boot flags must match the saving run:
//	                                 the snapshot carries the whole machine
//	                                 state but not its configuration or
//	                                 device complement)
//	-metrics-out FILE                write a Prometheus text snapshot of the
//	                                 run's counters and histograms
//	-chrometrace FILE                write the scheduling timeline as Chrome
//	                                 trace_event JSON (chrome://tracing,
//	                                 Perfetto)
//	-http ADDR                       serve /metrics, /debug/vars and
//	                                 /debug/pprof while running (the run is
//	                                 sliced so the snapshot stays fresh)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"dorado"
	"dorado/internal/core"
	"dorado/internal/masm"
	"dorado/internal/microcode"
	"dorado/internal/store"
	"dorado/internal/trace"
)

func main() {
	lang := flag.String("lang", "mesa", "emulator: mesa|bcpl|lisp|smalltalk")
	demo := flag.String("demo", "sum", "demo program: sum|fib|calls")
	source := flag.String("source", "", "compile and run this source file (Mesa/Lisp)")
	devices := flag.Bool("devices", false, "attach disk and display controllers")
	cycles := flag.Uint64("cycles", 2_000_000, "cycle limit")
	stats := flag.Bool("stats", false, "print full machine statistics")
	saveFile := flag.String("save", "", "write a machine snapshot to this file after the run")
	restoreFile := flag.String("restore", "", "restore a machine snapshot from this file before running")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus text snapshot to this file after the run")
	chromeTrace := flag.String("chrometrace", "", "write a Chrome trace_event JSON timeline to this file after the run")
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof on this address while running")
	flag.Parse()

	language, ok := map[string]dorado.Language{
		"mesa": dorado.Mesa, "bcpl": dorado.BCPL,
		"lisp": dorado.Lisp, "smalltalk": dorado.Smalltalk,
	}[*lang]
	if !ok {
		fatal(fmt.Errorf("unknown language %q", *lang))
	}
	opts := []dorado.Option{dorado.WithLanguage(language)}
	observed := *metricsOut != "" || *chromeTrace != "" || *httpAddr != ""
	if observed {
		opts = append(opts, dorado.WithMetrics(dorado.NewMetrics()))
	}
	sys, err := dorado.New(opts...)
	if err != nil {
		fatal(err)
	}
	var expected []uint16
	if *source != "" {
		text, err := os.ReadFile(*source)
		if err != nil {
			fatal(err)
		}
		if err := sys.BootSource(string(text)); err != nil {
			fatal(err)
		}
		expected = nil
	} else {
		asm := sys.Asm()
		exp, setup, err := writeDemo(language, *demo, asm)
		if err != nil {
			fatal(err)
		}
		expected = exp
		if err := sys.Boot(asm); err != nil {
			fatal(err)
		}
		if setup != nil {
			setup(sys)
		}
	}

	var disk, display interface{ Task() int }
	if *devices {
		d := dorado.NewDisk(11)
		if err := sys.Machine.Attach(d); err != nil {
			fatal(err)
		}
		disp := dorado.NewDisplay(13, sys.Machine, 32) // a quarter of full bandwidth
		disp.SetBase(0x20000)
		if err := sys.Machine.Attach(disp); err != nil {
			fatal(err)
		}
		if err := installDeviceMicrocode(sys); err != nil {
			fatal(err)
		}
		disk, display = d, disp
	}

	what := fmt.Sprintf("demo %q", *demo)
	if *source != "" {
		what = *source
	}
	if *restoreFile != "" {
		snap, err := os.ReadFile(*restoreFile)
		if err != nil {
			fatal(err)
		}
		if err := sys.Machine.Restore(snap); err != nil {
			fatal(fmt.Errorf("restore %s: %w (boot flags must match the run that saved it)", *restoreFile, err))
		}
		what = fmt.Sprintf("%s, resumed from %s at cycle %d", what, *restoreFile, sys.Machine.Cycle())
	}
	fmt.Printf("Dorado: %v emulator, %s\n", language, what)
	var halted bool
	if *httpAddr == "" {
		halted = sys.Run(*cycles)
	} else {
		// Slice the run so the served snapshot tracks the simulation; the
		// machine only advances between publishes, so each snapshot is a
		// consistent paused view.
		var mu sync.Mutex
		var snap *dorado.MetricsSnapshot
		publish := func() {
			s := sys.Snapshot()
			mu.Lock()
			snap = s
			mu.Unlock()
		}
		publish()
		srv, err := dorado.ServeDebug(*httpAddr, func() *dorado.MetricsSnapshot {
			mu.Lock()
			defer mu.Unlock()
			return snap
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
		const slice = 1 << 16
		for done := uint64(0); done < *cycles && !halted; done += slice {
			n := uint64(slice)
			if rest := *cycles - done; rest < n {
				n = rest
			}
			halted = sys.Run(n)
			publish()
		}
	}
	st := sys.Machine.Stats()
	if halted {
		fmt.Printf("halted after %d cycles (%.3f ms at 60 ns)\n",
			st.Cycles, float64(st.Cycles)*core.CycleNS*1e-6)
	} else {
		fmt.Printf("cycle limit reached (%d)\n", *cycles)
	}
	var result []uint16
	switch language {
	case dorado.BCPL:
		result = []uint16{sys.Acc()}
	case dorado.Lisp:
		for _, item := range sys.LispStack() {
			result = append(result, item[1])
		}
	default:
		result = sys.Stack()
	}
	if expected != nil {
		fmt.Printf("result: %v (expected %v)\n", result, expected)
	} else {
		fmt.Printf("result: %v\n", result)
	}
	if *devices {
		fmt.Printf("disk task %d:    %s of the processor\n", disk.Task(),
			fmt.Sprintf("%.1f%%", 100*st.Utilization(disk.Task())))
		fmt.Printf("display task %d: %s of the processor\n", display.Task(),
			fmt.Sprintf("%.1f%%", 100*st.Utilization(display.Task())))
	}
	if *stats {
		fmt.Print(trace.FormatStats(st))
		ms := sys.Machine.Mem().Stats()
		fmt.Printf("memory: %d reads, %d writes, %d hits, %d misses, %d fast blocks\n",
			ms.Reads, ms.Writes, ms.Hits, ms.Misses, ms.FastReads+ms.FastWrites)
	}
	if *saveFile != "" {
		if err := store.WriteFileAtomic(*saveFile, sys.Machine.Snapshot()); err != nil {
			fatal(err)
		}
		fmt.Printf("saved snapshot to %s (cycle %d)\n", *saveFile, sys.Machine.Cycle())
	}
	if *metricsOut != "" {
		if err := writeExport(*metricsOut, sys.WritePrometheus); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Prometheus metrics to %s\n", *metricsOut)
	}
	if *chromeTrace != "" {
		if err := writeExport(*chromeTrace, sys.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *chromeTrace)
	}
}

// writeExport streams one exporter into a freshly created file.
func writeExport(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeDemo emits the selected demo for the selected language and returns
// the expected result.
func writeDemo(lang dorado.Language, demo string, a *dorado.Asm) ([]uint16, func(*dorado.System), error) {
	switch lang {
	case dorado.Mesa:
		switch demo {
		case "sum": // sum 1..100
			a.OpB("LIB", 100).OpB("SL", 4)
			a.OpB("LIB", 0).OpB("SL", 5)
			a.Label("loop")
			a.OpB("LL", 5).OpB("LL", 4).Op("ADD").OpB("SL", 5)
			a.OpB("LL", 4).OpW("LIW", 1).Op("SUB").OpB("SL", 4)
			a.OpB("LL", 4).OpL("JNZ", "loop")
			a.OpB("LL", 5).Op("HALT")
			return []uint16{5050}, nil, nil
		case "fib": // iterative fib(20)
			a.OpB("LIB", 0).OpB("SL", 4)  // a
			a.OpB("LIB", 1).OpB("SL", 5)  // b
			a.OpB("LIB", 20).OpB("SL", 6) // n
			a.Label("loop")
			a.OpB("LL", 4).OpB("LL", 5).Op("ADD") // a+b
			a.OpB("LL", 5).OpB("SL", 4)           // a = b
			a.OpB("SL", 5)                        // b = a+b
			a.OpB("LL", 6).OpW("LIW", 1).Op("SUB").OpB("SL", 6)
			a.OpB("LL", 6).OpL("JNZ", "loop")
			a.OpB("LL", 4).Op("HALT")
			return []uint16{6765}, nil, nil
		case "calls": // f(f(f(6))) with f(x) = x*2+1
			a.OpB("LIB", 6)
			a.OpW("CALL", 100).OpW("CALL", 100).OpW("CALL", 100)
			a.Op("HALT")
			a.Label("f")
			a.OpB("LL", 2).OpB("LL", 2).Op("ADD").Op("INC")
			a.Op("RET")
			pc, err := a.LabelPC("f")
			if err != nil {
				return nil, nil, err
			}
			return []uint16{55}, func(s *dorado.System) { s.DefineFunc(100, pc, 1) }, nil
		}
	case dorado.BCPL:
		if demo != "sum" {
			return nil, nil, fmt.Errorf("bcpl supports -demo sum")
		}
		a.OpB("LDK", 1).OpB("STL", 3)
		a.OpB("LDK", 100).OpB("STL", 2)
		a.OpB("LDK", 0).OpB("STG", 0)
		a.Label("loop")
		a.OpB("LDG", 0).OpB("ADDL", 2).OpB("STG", 0)
		a.OpB("LDL", 2).OpB("SUBL", 3).OpB("STL", 2)
		a.OpL("JNZ", "loop")
		a.OpB("LDG", 0).Op("HALT")
		return []uint16{5050}, nil, nil
	case dorado.Lisp:
		if demo != "sum" {
			return nil, nil, fmt.Errorf("lisp supports -demo sum")
		}
		// (setq acc (+ acc n)) loop over fixnums, result on the memory stack.
		a.OpW("PUSHK", 0) // acc stays on the stack
		for n := 1; n <= 100; n++ {
			a.OpW("PUSHK", uint16(n)).Op("ADDF")
		}
		a.Op("HALT")
		return []uint16{5050}, func(s *dorado.System) {}, nil
	case dorado.Smalltalk:
		if demo != "sum" {
			return nil, nil, fmt.Errorf("smalltalk supports -demo sum")
		}
		a.OpW("PUSHK", 0)
		for n := 1; n <= 100; n++ {
			a.OpW("PUSHK", uint16(n)).Op("ADDI")
		}
		a.Op("HALT")
		return []uint16{5050<<1 | 1}, nil, nil
	}
	return nil, nil, fmt.Errorf("language %v has no demo %q", lang, demo)
}

// installDeviceMicrocode assembles the disk and display service routines,
// splices them into free pages of the emulator's microstore image, and
// points the device tasks at them.
func installDeviceMicrocode(sys *dorado.System) error {
	m := sys.Machine
	b := masm.NewBuilder()
	b.EmitAt("dev.disk", masm.I{FF: microcode.FFInput, ALU: microcode.ALUB, LC: microcode.LCLoadT})
	b.Emit(masm.I{A: microcode.ASelStore, R: 14, B: microcode.BSelT,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM})
	b.Emit(masm.I{A: microcode.ASelStore, R: 14, FF: microcode.FFInput,
		ALU: microcode.ALUAplus1, LC: microcode.LCLoadRM, Block: true, Flow: masm.Goto("dev.disk")})
	b.EmitAt("dev.disp", masm.I{A: microcode.ASelT, B: microcode.BSelRM, R: 15,
		ALU: microcode.ALUAplusB, LC: microcode.LCLoadRM, FF: microcode.FFOutput})
	b.Emit(masm.I{Block: true, Flow: masm.Goto("dev.disp")})
	p, err := b.Assemble()
	if err != nil {
		return err
	}
	combined, err := masm.Splice(sys.Emulator.Micro, p)
	if err != nil {
		return err
	}
	m.Load(&combined.Words)
	m.SetIOAddress(11, 11)
	m.SetIOAddress(13, 13)
	m.SetTPC(11, combined.MustEntry("dev.disk"))
	m.SetTPC(13, combined.MustEntry("dev.disp"))
	m.SetRM(14, 0x7800) // disk buffer
	m.SetT(13, 16)      // display block stride
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dorado:", err)
	os.Exit(1)
}

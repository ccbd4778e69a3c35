package dorado

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

type countingTracer struct{ n int }

func (c *countingTracer) Trace(TraceEvent) { c.n++ }

// mesaAdd assembles the quickstart program on sys and runs it to halt.
func mesaAdd(t *testing.T, sys *System) {
	t.Helper()
	asm := sys.Asm()
	asm.OpB("LIB", 2).OpB("LIB", 40).Op("ADD").Op("HALT")
	if err := sys.Boot(asm); err != nil {
		t.Fatal(err)
	}
	if !sys.Run(10_000) {
		t.Fatal("did not halt")
	}
}

func TestNewOptionMatrix(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		lang Language
		met  bool
	}{
		{"none", nil, None, false},
		{"config-only", []Option{WithConfig(Config{})}, None, false},
		{"language", []Option{WithLanguage(Mesa)}, Mesa, false},
		{"language+config", []Option{WithLanguage(Lisp), WithConfig(Config{})}, Lisp, false},
		{"language+metrics", []Option{WithLanguage(Mesa), WithMetrics(NewMetrics())}, Mesa, true},
		{"everything", []Option{
			WithLanguage(Smalltalk), WithConfig(Config{}),
			WithMetrics(NewMetrics()), WithTracer(&countingTracer{}),
			WithDevice(NewDisk(12)),
		}, Smalltalk, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Language != tc.lang {
				t.Errorf("Language = %v, want %v", sys.Language, tc.lang)
			}
			if (sys.Metrics != nil) != tc.met {
				t.Errorf("Metrics attached = %v, want %v", sys.Metrics != nil, tc.met)
			}
			if (sys.Emulator != nil) != (tc.lang != None) {
				t.Errorf("Emulator installed = %v for %v", sys.Emulator != nil, tc.lang)
			}
			if sys.Machine == nil {
				t.Fatal("no machine")
			}
		})
	}
}

// A Config with translation on must produce a system that translates its
// microcode and still computes the same answer as an untranslated one.
func TestTranslationWithConfig(t *testing.T) {
	plain, err := New(WithLanguage(Mesa))
	if err != nil {
		t.Fatal(err)
	}
	trans, err := New(WithLanguage(Mesa), WithConfig(Config{Translation: Translation{Enable: true}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*System{plain, trans} {
		asm := sys.Asm()
		asm.OpB("LIB", 200)
		asm.OpB("SL", 4)
		asm.Label("loop")
		asm.OpB("LL", 4)
		asm.OpB("LIB", 1)
		asm.Op("SUB")
		asm.Op("DUP")
		asm.OpB("SL", 4)
		asm.OpL("JNZ", "loop")
		asm.Op("HALT")
		if err := sys.Boot(asm); err != nil {
			t.Fatal(err)
		}
		if !sys.Run(2_000_000) {
			t.Fatal("did not halt")
		}
	}
	if p, q := plain.Machine.Cycle(), trans.Machine.Cycle(); p != q {
		t.Errorf("cycle counts diverged: plain %d, translated %d", p, q)
	}
	ts := trans.Machine.TranslationStats()
	if ts.BlocksBuilt == 0 || ts.FusedCycles == 0 {
		t.Errorf("translation never engaged: %+v", ts)
	}
	if ps := plain.Machine.TranslationStats(); ps.BlocksBuilt != 0 {
		t.Errorf("untranslated system built superblocks: %+v", ps)
	}
}

func TestNewBareMachineRuns(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	b.Label("start")
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.Load(&p.Words)
	sys.Machine.Start(p.MustEntry("start"))
	if !sys.Run(100) {
		t.Fatal("bare system did not halt")
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := New(WithLanguage(Language(99))); !errors.Is(err, ErrUnknownLanguage) {
		t.Errorf("unknown language error = %v, want ErrUnknownLanguage", err)
	}
	sys, err := New(WithLanguage(BCPL))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BootSource("x := 1"); !errors.Is(err, ErrNoCompiler) {
		t.Errorf("BCPL BootSource error = %v, want ErrNoCompiler", err)
	}
}

func TestInstallErrorSurfacesThroughFacade(t *testing.T) {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		t.Fatal(err)
	}
	asm := sys.Asm()
	asm.OpL("JMP", "nowhere") // undefined label
	err = sys.Boot(asm)
	if err == nil {
		t.Fatal("Boot succeeded with undefined label")
	}
	var ie *InstallError
	if !errors.As(err, &ie) {
		t.Fatalf("Boot error %v (%T) is not an *InstallError", err, err)
	}
}

// Stack() must respect the [stack:2][word:6] STACKPTR split (§6.3.3).
func TestStackRespectsBankBits(t *testing.T) {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Machine

	// Empty stack.
	m.SetStackPtr(0)
	if got := sys.Stack(); len(got) != 0 {
		t.Errorf("empty stack reads %v", got)
	}

	// Two words in bank 2: words live at stack[0x81..0x82], and the old
	// 0x3F-mask bug would have read bank 0 instead.
	m.SetStackPtr(2<<6 | 2)
	m.SetStack(2<<6+1, 111)
	m.SetStack(2<<6+2, 222)
	m.SetStack(1, 0xDEAD) // bank 0 decoy
	m.SetStack(2, 0xBEEF)
	if got := sys.Stack(); len(got) != 2 || got[0] != 111 || got[1] != 222 {
		t.Errorf("bank-2 stack = %v, want [111 222]", got)
	}

	// Full stack: depth 63 is the deepest pointer value the 6-bit word
	// field represents.
	m.SetStackPtr(63)
	for i := 1; i <= 63; i++ {
		m.SetStack(i, uint16(i))
	}
	got := sys.Stack()
	if len(got) != 63 || got[0] != 1 || got[62] != 63 {
		t.Errorf("full stack len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
}

func TestWithTracerSeesEveryCycle(t *testing.T) {
	tr := &countingTracer{}
	sys, err := New(WithLanguage(Mesa), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	mesaAdd(t, sys)
	if uint64(tr.n) != sys.Machine.Cycle() {
		t.Errorf("tracer saw %d events over %d cycles", tr.n, sys.Machine.Cycle())
	}
}

func TestMetricsMatchCoreStats(t *testing.T) {
	sys, err := New(WithLanguage(Mesa), WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	mesaAdd(t, sys)
	st := sys.Machine.Stats()

	var buf bytes.Buffer
	if err := sys.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	wantLines := []string{
		"dorado_cycles_total " + itoa(st.Cycles),
		"dorado_instructions_total " + itoa(st.Executed),
		"dorado_task_switches_total " + itoa(st.TaskSwitches),
		"dorado_hold_latency_cycles_sum " + itoa(st.Holds),
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The hold histogram's episode sum must equal the stats hold counter.
	h := sys.Metrics.HoldLatency().Snapshot()
	if h.Sum != st.Holds {
		t.Errorf("hold histogram sum %d != stats holds %d", h.Sum, st.Holds)
	}
}

// Two identical runs must export byte-identical Prometheus text and Chrome
// traces — the determinism the exporters promise.
func TestGoldenExportsByteStable(t *testing.T) {
	run := func() (string, string) {
		sys, err := New(WithLanguage(Mesa), WithMetrics(NewMetrics()), WithDevice(NewDisk(12)))
		if err != nil {
			t.Fatal(err)
		}
		mesaAdd(t, sys)
		var prom, chrome bytes.Buffer
		if err := sys.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := sys.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		return prom.String(), chrome.String()
	}
	p1, c1 := run()
	p2, c2 := run()
	if p1 != p2 {
		t.Errorf("Prometheus exports differ:\n--- 1 ---\n%s\n--- 2 ---\n%s", p1, p2)
	}
	if c1 != c2 {
		t.Errorf("Chrome traces differ")
	}

	// The trace is valid JSON in the trace_event object format with at
	// least one scheduling span.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(c1), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("trace has no scheduling spans")
	}
}

func TestWriteChromeTraceWithoutMetrics(t *testing.T) {
	sys, err := New(WithLanguage(Mesa))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace succeeded without WithMetrics")
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

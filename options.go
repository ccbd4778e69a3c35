package dorado

import (
	"fmt"

	"dorado/internal/core"
	"dorado/internal/emulator"
)

// An Option configures a System built by New.
type Option func(*settings)

type settings struct {
	lang    Language
	cfg     Config
	tracer  core.Tracer
	metrics *Metrics
	prof    *core.Profiler
	devices []Device
}

// WithLanguage installs one of the four byte-code emulators (§7). Without
// it the System is a bare microcode-level machine (Language None).
func WithLanguage(l Language) Option {
	return func(s *settings) { s.lang = l }
}

// WithConfig sets the machine configuration. The zero Config — the Dorado
// as built — is the default.
func WithConfig(cfg Config) Option {
	return func(s *settings) { s.cfg = cfg }
}

// WithTracer attaches a cycle tracer (e.g. trace.NewWriter or a Ring).
func WithTracer(t Tracer) Option {
	return func(s *settings) { s.tracer = t }
}

// WithMetrics attaches an observability recorder; pass NewMetrics(). The
// recorder is read while the machine is paused: between runs, the
// System's WritePrometheus / WriteChromeTrace methods export its data.
// Metrics-off systems pay one nil check per cycle.
func WithMetrics(m *Metrics) Option {
	return func(s *settings) { s.metrics = m }
}

// WithDevice attaches an I/O controller to its wakeup task.
func WithDevice(d Device) Option {
	return func(s *settings) { s.devices = append(s.devices, d) }
}

// New builds a System from functional options:
//
//	sys, err := dorado.New(dorado.WithLanguage(dorado.Mesa))
//	sys, err := dorado.New(dorado.WithConfig(cfg), dorado.WithMetrics(dorado.NewMetrics()))
//
// With no options it is a bare machine with the default configuration;
// drop to sys.Machine for the microcode-level interface.
//
// New fills and copies no microstore: every machine starts on the one
// shared all-HALT store and an empty decode table. Booting a bundled
// language points the machine at that language's decoded microstore and
// decode table, shared by every System in the process, and a System
// copies one only at its first write that differs (SetIM, Load of other
// microcode).
func New(opts ...Option) (*System, error) {
	st := settings{lang: None}
	for _, o := range opts {
		o(&st)
	}

	var prog *emulator.Program
	switch st.lang {
	case None:
	case Mesa:
		prog = emulator.Mesa()
	case BCPL:
		prog = emulator.BCPL()
	case Lisp:
		prog = emulator.Lisp()
	case Smalltalk:
		prog = emulator.Smalltalk()
	default:
		return nil, fmt.Errorf("%w %v", ErrUnknownLanguage, st.lang)
	}

	m, err := core.New(st.cfg)
	if err != nil {
		return nil, err
	}
	if st.tracer != nil {
		m.SetTracer(st.tracer)
	}
	if st.metrics != nil {
		m.SetRecorder(st.metrics)
		if prog != nil {
			st.metrics.SetTaskName(0, prog.Name)
		}
	}
	if st.prof != nil {
		m.SetProfiler(st.prof)
	}
	for _, d := range st.devices {
		if err := m.Attach(d); err != nil {
			return nil, err
		}
	}
	return &System{Machine: m, Language: st.lang, Emulator: prog, Metrics: st.metrics, Profiler: st.prof}, nil
}

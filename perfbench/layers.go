package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dorado"
	"dorado/internal/device"
	"dorado/internal/fleet"
	"dorado/internal/masm"
	"dorado/internal/memory"
	"dorado/internal/state"
	"dorado/internal/store"
)

// buildSystem builds a machine of kind k the way the fleet builds a
// session's: dorado.New with the Spec's configuration and language, then
// the disk (task 11, a word every 27 cycles) and display (task 13, a
// block every 8 cycles) controllers attached at their catalog defaults.
// translate alone decides whether the superblock translator is on; a
// machine like a session of kind k takes k.translated(). The traced run
// checks that parks of these machines hash the same as the fleet's.
func buildSystem(k sessionKind, translate bool) (*dorado.System, error) {
	var cfg dorado.Config
	cfg.Translation.Enable = translate
	if k != kindDevices {
		return dorado.New(dorado.WithConfig(cfg), dorado.WithLanguage(dorado.Mesa))
	}
	sys, err := dorado.New(dorado.WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	m := sys.Machine
	disp := device.NewDisplay(13, m.Mem(), 8, 4)
	disp.SetBase(0)
	for _, d := range []dorado.Device{device.NewWordSource(11, 27, 2), disp} {
		if err := m.Attach(d); err != nil {
			return nil, err
		}
	}
	m.SetIOAddress(11, 11)
	m.SetIOAddress(13, 13)
	return sys, nil
}

// loadProgram boots a Mesa program (System.BootSource), or assembles
// microcode and loads it with task 0 at emu, the disk task at disk and
// the display task at disp, as the fleet's microcode load does.
func loadProgram(k sessionKind, sys *dorado.System, program string) error {
	if k != kindDevices {
		return sys.BootSource(program)
	}
	prog, err := masm.AssembleText(program)
	if err != nil {
		return err
	}
	var entry [3]dorado.Addr
	for i, label := range []string{"emu", "disk", "disp"} {
		if entry[i], err = prog.Entry(label); err != nil {
			return err
		}
	}
	m := sys.Machine
	m.Load(&prog.Words)
	m.Start(entry[0])
	m.SetTPC(11, entry[1])
	m.SetTPC(13, entry[2])
	return nil
}

func buildName(k sessionKind) string {
	if k == kindDevices {
		return "build.devices"
	}
	return "build.mesa"
}

func loadName(k sessionKind) string {
	if k == kindDevices {
		return "masm.load"
	}
	return "boot"
}

// layerSequence is one lifecycle sequence by direct layer calls, in the
// order the fleet makes them, each call in a span under its operation's
// root span. It has its own store and takes the inputs of the Manager
// path's sequence k, so the two parks must hash the same; it returns its
// park's hash.
func (r *replayer) layerSequence(k int) (string, error) {
	kind, tr := r.p.w.kind, r.tr
	build := func() (*dorado.System, error) { return buildSystem(kind, kind.translated()) }
	var sys *dorado.System
	op := tr.root("create")
	_, err := tr.call(op, buildName(kind), func() (err error) { sys, err = build(); return err })
	if err == nil {
		_, err = tr.call(op, loadName(kind), func() error { return loadProgram(kind, sys, r.p.seqProgram(0, k)) })
	}
	tr.end(op)
	if err != nil {
		return "", err
	}
	n := shortRun(r.p.w.shortRun, 0, k)
	op = tr.root("run")
	var ran uint64
	tr.call(op, "core.run", func() error { ran = sys.Machine.RunCycles(n); return nil }) //nolint:errcheck // cannot fail
	tr.end(op)
	if ran != n {
		r.t.check("run", "%s layer run: ran %d of %d", r.p.w.name, ran, n)
	}
	cycle, stack := sys.Machine.Cycle(), sys.Stack()
	id := fmt.Sprintf("L%d", k)
	hash, err := r.layerPark("park", sys, id, uint64(2*k+1))
	if err != nil {
		return "", err
	}

	restore := func(name string) (*dorado.System, error) {
		op := tr.root(name)
		defer tr.end(op)
		if name == "fork" {
			defer r.lst.Pin(hash)()
			if _, err := tr.call(op, "store.meta.read", func() error { _, err := r.lst.Meta(hash); return err }); err != nil {
				return nil, err
			}
		}
		var data []byte
		var s *dorado.System
		_, err := tr.call(op, "store.get", func() (err error) { data, err = r.lst.Get(hash); return err })
		if err == nil {
			_, err = tr.call(op, buildName(kind), func() (err error) { s, err = build(); return err })
		}
		if err == nil {
			_, err = tr.call(op, "state.restore", func() error { return s.Machine.Restore(data) })
		}
		if err == nil && (s.Machine.Cycle() != cycle || !slices.Equal(s.Stack(), stack)) {
			r.t.check(name, "%s layer %s: cycle %d stack %v, parked cycle %d stack %v", r.p.w.name, name, s.Machine.Cycle(), s.Stack(), cycle, stack)
		}
		return s, err
	}
	if _, err := restore("revive"); err != nil {
		return "", err
	}
	fork, err := restore("fork")
	if err != nil {
		return "", err
	}
	again, err := r.layerPark("repark", fork, id+"f", uint64(2*k+2))
	if err != nil {
		return "", err
	}
	if again != hash {
		r.t.check("repark", "%s layer re-park: %s, donor %s", r.p.w.name, again, hash)
	}
	op = tr.root("destroy")
	_, err = tr.call(op, "store.delete", func() error { return errors.Join(r.lst.DeleteSession(id), r.lst.DeleteSession(id+"f")) })
	tr.end(op)
	return hash, err
}

// layerPark parks sys as Manager.persist does: snapshot, hash the
// snapshot and pin the hash, store it section by section (PutSnapshot
// splits it), write the Spec sidecar, record the manifest entry. After
// the park, outside its spans, it times one state.Split of the snapshot
// on its own: the split that store.put contains.
func (r *replayer) layerPark(name string, sys *dorado.System, id string, seq uint64) (string, error) {
	tr := r.tr
	op := tr.root(name)
	var snap []byte
	i, _ := tr.call(op, "state.snapshot", func() error { snap = sys.Machine.Snapshot(); return nil })
	tr.attr(i, "kib", float64(len(snap))/1024)
	var hash string
	tr.call(op, "store.hash", func() error { hash = store.Hash(snap); return nil }) //nolint:errcheck // cannot fail
	unpin := r.lst.Pin(hash)
	var ps store.PutStats
	put, err := tr.call(op, "store.put", func() (err error) { ps, err = r.lst.PutSnapshot(snap); return err })
	if err == nil {
		var spec []byte
		if spec, err = json.Marshal(r.spec); err == nil {
			_, err = tr.call(op, "store.meta", func() error { return r.lst.PutMeta(hash, spec) })
		}
		if err == nil {
			_, err = tr.call(op, "store.manifest", func() error {
				return r.lst.SaveSession(store.Entry{ID: id, Seq: seq, Spec: spec, Hash: hash, Cycle: sys.Machine.Cycle(), ParkedAt: time.Now()})
			})
		}
	}
	unpin()
	tr.end(op)
	if err != nil {
		return "", err
	}
	if ps.Hash != hash {
		r.t.check(name, "%s layer park: stored as %s, hashed %s", r.p.w.name, ps.Hash, hash)
	}

	tr.spans[put].Name = "store.put.dedupe"
	if ps.NewBytes > 0 {
		tr.spans[put].Name = "store.put.fresh"
		// New sections, the recipe, the sidecar and the manifest: every
		// file this park writes, each with an fsync.
		tr.attr(put, "files", float64(ps.Sections-ps.DedupedSections+3))
		tr.attr(put, "new_kib", float64(ps.NewBytes)/1024)
	}
	tr.attr(put, "deduped_bytes", float64(ps.DedupedBytes))
	split := tr.root("state.split")
	doc, err := state.Split(snap)
	tr.end(split)
	if err != nil {
		return "", err
	}
	sections := 0
	for _, s := range doc.Sections {
		sections += len(s.Body)
	}
	tr.attr(put, "section_bytes", float64(sections))
	return hash, nil
}

// layerMetrics derives the per-layer times from the spans: the median
// self time of each span name, and the store's counts from the spans'
// attributes.
func layerMetrics(tr *tracer, m metrics) {
	self := tr.selfTimes()
	ms := func(metric, span string) { m.set(metric, "ms", median(self[span])) }
	ms("build.ms.mesa", "build.mesa")
	ms("build.ms.devices", "build.devices")
	ms("boot.ms", "boot")
	ms("masm.load_ms", "masm.load")
	ms("state.snapshot_ms", "state.snapshot")
	ms("state.split_ms", "state.split")
	ms("store.hash_ms", "store.hash")
	ms("state.restore_ms", "state.restore")
	ms("store.put_ms.fresh", "store.put.fresh")
	ms("store.put_ms.dedupe", "store.put.dedupe")
	ms("store.meta_ms", "store.meta")
	ms("store.manifest_ms", "store.manifest")
	ms("store.get_ms", "store.get")
	ms("store.sweep_ms", "store.sweep")
	m.set("state.snapshot_kib", "KiB", median(tr.attrs("state.snapshot", "kib")))
	m.set("store.new_kib_per_park", "KiB", mean(tr.attrs("store.put.fresh", "new_kib")))
	m.set("store.files_per_park", "count", mean(tr.attrs("store.put.fresh", "files")))
	var dedup, all float64
	for _, name := range []string{"store.put.fresh", "store.put.dedupe"} {
		dedup += sum(tr.attrs(name, "deduped_bytes"))
		all += sum(tr.attrs(name, "section_bytes"))
	}
	m.set("store.dedupe_share", "share", dedup/all)
	for _, op := range []string{"create", "park", "revive", "fork", "run"} {
		m.set("http.overhead_ms."+op, "ms", median(self["http."+op])-median(self["mgr."+op]))
	}
}

// coreRun is the size of one timed Machine.RunCycles call, and coreReps
// the number of calls per machine.
const (
	coreRun  = 3_000_000
	coreReps = 3
)

// coreMetrics times Machine.RunCycles on machines built like each
// workload's sessions and on the spin baseline, and reads each
// workload machine's simulated statistics, which must be identical on
// the predecoded and translated paths.
func coreMetrics(seed int64, dasm string, t *tally, m metrics) error {
	emulate := makePlan(workloads[0], seed, 1, 0, 1, dasm).progs[0]
	type machine struct {
		name, program string
		kind          sessionKind
		translate     bool
	}
	for _, mc := range []machine{
		{"emulate", emulate, kindMesaTranslated, true},
		{"emulate_predecoded", emulate, kindMesa, false},
		{"devices", dasm, kindDevices, false},
		{"spin", fleet.SpinMicrocode, kindDevices, false},
	} {
		var sys *dorado.System
		var err error
		if mc.name == "spin" {
			sys, err = spinSystem()
		} else if sys, err = buildSystem(mc.kind, mc.translate); err == nil {
			err = loadProgram(mc.kind, sys, mc.program)
		}
		if err != nil {
			return fmt.Errorf("core machine %s: %w", mc.name, err)
		}
		sys.Machine.RunCycles(1_000_000) // warm: translator blocks built, caches filled
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ts0 := sys.Machine.TranslationStats()
		ns := make([]float64, 0, coreReps)
		for i := 0; i < coreReps; i++ {
			start := time.Now()
			sys.Machine.RunCycles(coreRun)
			ns = append(ns, float64(time.Since(start).Nanoseconds())/coreRun)
		}
		runtime.ReadMemStats(&ms1)
		ts1 := sys.Machine.TranslationStats()
		m.set("core.ns_per_cycle."+mc.name, "ns", median(ns))
		m.set("core.allocs_per_mcycle."+mc.name, "count", float64(ms1.Mallocs-ms0.Mallocs)/(coreReps*coreRun/1e6))
		if mc.name == "emulate" {
			fused := float64(ts1.FusedCycles - ts0.FusedCycles)
			m.set("core.fused_share.emulate", "share", fused/(coreReps*coreRun))
			m.set("core.cycles_per_entry.emulate", "cycles", fused/float64(ts1.Entries-ts0.Entries))
		}
	}

	// Simulated statistics: deterministic counts, checked equal on both
	// paths before they are reported.
	const simCycles = 1_000_000
	for _, w := range workloads {
		p := makePlan(w, seed, 1, 0, 1, dasm)
		var stats [2]dorado.Stats
		var mem [2]memory.Stats
		var snap [2][]byte
		for i, translate := range []bool{false, true} {
			sys, err := buildSystem(w.kind, translate)
			if err == nil {
				err = loadProgram(w.kind, sys, p.progs[0])
			}
			if err != nil {
				return fmt.Errorf("sim machine %s: %w", w.name, err)
			}
			sys.Machine.RunCycles(simCycles)
			stats[i], mem[i], snap[i] = sys.Machine.Stats(), sys.Machine.Mem().Stats(), sys.Machine.Snapshot()
		}
		if stats[0] != stats[1] || mem[0] != mem[1] || !bytes.Equal(snap[0], snap[1]) {
			t.check("sim", "%s machine: predecoded and translated paths differ after %d cycles", w.name, simCycles)
		}
		st := stats[0]
		cyc := float64(st.Cycles)
		m.set("sim.ipc."+w.name, "1/cycle", float64(st.Executed)/cyc)
		m.set("sim.hold_share."+w.name, "share", float64(st.Holds)/cyc)
		m.set("sim.task_switches_per_kcycle."+w.name, "1/kcycle", float64(st.TaskSwitches)*1000/cyc)
		refs := float64(mem[0].Hits + mem[0].Misses)
		m.set("sim.cache_miss_rate."+w.name, "share", float64(mem[0].Misses)/max(refs, 1))
	}
	return nil
}

// spinSystem is the ablation baseline: a bare machine running the
// fleet's two-instruction counter loop.
func spinSystem() (*dorado.System, error) {
	sys, err := dorado.New()
	if err != nil {
		return nil, err
	}
	prog, err := masm.AssembleText(fleet.SpinMicrocode)
	if err != nil {
		return nil, err
	}
	entry, err := prog.Entry("start")
	if err != nil {
		return nil, err
	}
	sys.Machine.Load(&prog.Words)
	sys.Machine.Start(entry)
	return sys, nil
}

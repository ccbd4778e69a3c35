package main

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host the benchmark runs on is a virtual machine on a shared
// machine, and other tenants disturb it in two ways:
//
//   - Speed: the CPUs run slower or faster by half and more within
//     minutes as neighbours load the shared caches and cores; doradod's
//     CPU time per simulated cycle moves with wall time.
//   - Steal: the hypervisor withholds the CPUs for whole milliseconds
//     ("steal" in /proc/stat). Wall time grows while CPU time does not.
//     Part of the steal follows what the guest itself does: the
//     lifecycle phase, which allocates and frees a snapshot per park
//     and waits on itself, loses more than the probes between its
//     windows (perfbench/steadiness/README.md), so steal during
//     doradod's work is partly doradod's cost.
//
// So between timed windows, with doradod idle, the benchmark probes the
// host with a fixed kernel of its own, which no change to the program
// moves. The kernel's CPU time per step gives the host speed: a phase's
// times are reported at the speed where it takes the kernel's refNs,
// that is multiplied (a rate divided) by refNs over the phase's median
// probe. Code of different kinds slows by different amounts on a slow
// host, so there are two kernels: an interpreter loop for the runs
// phase, where doradod's time goes to its simulator's own interpreter
// loops, and a scattered-access loop for the set-up and the lifecycle
// phase, where it goes to control-plane work. The steal during the probes
// is the baseline: the share of CPU time other tenants withhold from a
// load that is not doradod's. The baseline of the two probes just before
// and after a window, and only that, is taken out of the window's wall
// time and latencies (e2e.go). The values as measured, the factors and
// the steal are printed before the result line.

// kernel is a probe's reference loop: the steps a probe runs on each
// core, about 60 ms on the development host, and refNs, the CPU time
// per step the reported metrics are scaled to, about its median there.
type kernel struct {
	steps int
	refNs float64
	loop  func(g, steps int) uint32 // g is the goroutine, 0 or 1
}

var (
	// interp probes the runs phase. On the development host the
	// simulator's CPU time per cycle followed it more closely than it
	// followed scatter, which a slow host slows less.
	interp = kernel{steps: 30_000_000, refNs: 2, loop: func(_, n int) uint32 { return interpLoop(n) }}
	// scatter probes the set-up and the lifecycle phase.
	scatter = kernel{steps: 3_000_000, refNs: 20, loop: func(g, n int) uint32 { return scatterLoop(scatterTables()[g], n, uint32(g)+1) }}
)

// probe is one run of a kernel: its CPU time per step, the kernel's
// refNs, its wall time and the steal meanwhile.
type probe struct {
	nsPerStep, refNs float64
	wall, steal      time.Duration
}

// probes are the host probes of one timed phase, all of one kernel.
type probes []probe

// factor returns refNs over the median probe: the factor the phase's
// times are multiplied by.
func (ps probes) factor() float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.nsPerStep
	}
	return ps[0].refNs / median(xs)
}

// stealRate returns the share of the probes' CPU time the hypervisor
// withheld.
func (ps probes) stealRate() float64 {
	var wall, steal time.Duration
	for _, p := range ps {
		wall += p.wall
		steal += p.steal
	}
	return float64(steal) / (float64(wall) * float64(runtime.NumCPU()))
}

// hostSteal returns the CPU time the hypervisor has withheld from this
// machine so far, summed over its CPUs.
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("unexpected /proc/stat cpu line")
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * clockTick, err
}

// refSink keeps the kernel's result live.
var refSink atomic.Uint32

// scatterTables are scatterLoop's two 1 MiB tables, one per goroutine,
// allocated and touched once so no probe pays for page faults.
var scatterTables = sync.OnceValue(func() [2][]uint32 {
	t := [2][]uint32{make([]uint32, 1<<18), make([]uint32, 1<<18)}
	for i := range t[0] {
		t[0][i], t[1][i] = uint32(i), uint32(i)
	}
	return t
})

// hostProbe runs kernel k on two goroutines at once, one per core as the
// workloads load them.
func hostProbe(k kernel) (probe, error) {
	steal0, err := hostSteal()
	if err != nil {
		return probe{}, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	ns := make([]float64, 2)
	for g := range ns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cpu0 := threadCPU()
			refSink.Add(k.loop(g, k.steps))
			ns[g] = float64((threadCPU() - cpu0).Nanoseconds()) / float64(k.steps)
		}(g)
	}
	wg.Wait()
	p := probe{nsPerStep: (ns[0] + ns[1]) / 2, refNs: k.refNs, wall: time.Since(start)}
	steal1, err := hostSteal()
	p.steal = steal1 - steal0
	return p, err
}

// threadCPU returns the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_THREAD on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scatterLoop is an unpredictable eight-way dispatch over a register
// file, loads and stores scattered over a 1 MiB table, and data-dependent
// branches.
func scatterLoop(mem []uint32, steps int, seed uint32) uint32 {
	var r [8]uint32
	x := seed
	mask := uint32(len(mem) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		a, b := x>>8&7, x>>11&7
		switch x & 7 {
		case 0:
			r[a] += r[b] + x
		case 1:
			r[a] ^= r[b] << (x >> 28)
		case 2:
			r[a] = mem[(r[b]^x)&mask]
		case 3:
			mem[(r[a]+x)&mask] = r[b]
		case 4:
			if r[a]&1 != 0 {
				r[b]++
			} else {
				r[b] -= r[a]
			}
		case 5:
			r[a] = r[a]*2654435761 + 1
		case 6:
			r[a], r[b] = r[b], r[a]
		default:
			r[a] = mem[x>>12&mask] + r[b]
		}
	}
	return r[0] ^ r[7]
}

// interpProgram is interpLoop's program: 512 one-byte instructions, the
// same on every run.
var interpProgram = func() []uint8 {
	code := make([]uint8, 512)
	x := uint32(12345)
	for i := range code {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		code[i] = uint8(x >> 8)
	}
	return code
}()

// interpLoop is an interpreter's inner loop: it runs interpProgram over
// and over, dispatching each instruction through an eight-way switch
// onto a register file and a 16 KiB memory. The program repeats, so the
// dispatch is as predictable as a simulated loop's.
func interpLoop(steps int) uint32 {
	const mask = 4095
	var r [8]uint32
	var mem [mask + 1]uint32
	pc := 0
	for i := 0; i < steps; i++ {
		op := interpProgram[pc]
		pc = (pc + 1) & (len(interpProgram) - 1)
		a, b := op>>3&7, op>>5&7
		switch op & 7 {
		case 0:
			r[a] += r[b] + 1
		case 1:
			r[a] ^= r[b] << 3
		case 2:
			r[a] = mem[r[b]&mask]
		case 3:
			mem[r[a]&mask] = r[b]
		case 4:
			if r[a]&1 != 0 {
				r[b]++
			} else {
				r[b] -= r[a]
			}
		case 5:
			r[a] = r[a]*2654435761 + 1
		case 6:
			r[a], r[b] = r[b], r[a]
		default:
			r[a] = mem[r[b]>>4&mask] + r[b]
		}
	}
	return r[0] ^ r[7]
}

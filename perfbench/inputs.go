package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
)

// newRand derives the generator of one named input stream from the run
// seed, so adding a stream never shifts the inputs of another.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(uint64(seed), h))
}

// mesaProgram returns a seeded Mesa program that never halts. Its main
// loop calls three instances each of a recursive kernel (calls and
// returns), an arithmetic loop and a bitwise loop, in a seeded order and
// with seeded constants and shift counts. Depths and trip counts are
// fixed, so every program spends the same share of its cycles in each
// kind of kernel and the host cost per simulated cycle does not depend
// on the seed. The program stores tag in global 1 before its loop, which
// makes the machine state of two programs differ even when the rest of
// their text is the same.
func mesaProgram(r *rand.Rand, tag int) string {
	var defs, body []string
	for i := 0; i < 3; i++ {
		defs = append(defs,
			fmt.Sprintf("func rec%d(n) { if n < 2 { return n + %d; } return rec%d(n - 1) + rec%d(n - 2); }",
				i, r.IntN(16), i, i),
			fmt.Sprintf("func mix%d(a, b) { var i = 0; while i < 9 { a = a * %d + b; b = b ^ (a << %d); i = i + 1; } return a - b; }",
				i, 3+2*r.IntN(8), 1+r.IntN(7)),
			fmt.Sprintf("func bits%d(x) { var c = 0; var i = 0; while i < 9 { c = c + (x & %d); x = (x ^ (x << %d)) | %d; i = i + 1; } return c; }",
				i, 1+r.IntN(255), 1+r.IntN(7), r.IntN(65536)))
		body = append(body,
			fmt.Sprintf("acc = acc + rec%d(7);", i),
			fmt.Sprintf("acc = mix%d(acc, %d);", i, r.IntN(65536)),
			fmt.Sprintf("acc = acc ^ bits%d(acc);", i))
	}
	r.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	return strings.Join(defs, "\n") + fmt.Sprintf("\nvar acc = %d;\nglobal 1 = %d;\nwhile 1 {\n    %s\n    global 2 = acc;\n}\n",
		r.IntN(65536), tag&0xFFFF, strings.Join(body, "\n    "))
}

// runSizes returns n run sizes whose mean is mean cycles: a fixed spread
// from 0.8 to 1.2 of the mean, in seeded order. Every seed gets the same
// sizes, so the work and the median run do not depend on the seed.
func runSizes(r *rand.Rand, n int, mean uint64) []uint64 {
	sizes := make([]uint64, n)
	for i := range sizes {
		f := 0.8
		if n > 1 {
			f += 0.4 * float64(i) / float64(n-1)
		}
		sizes[i] = uint64(f*float64(mean)/1000) * 1000
	}
	r.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// shortRun is the size of the one run in lifecycle sequence k of client
// c. Sizes are distinct across clients and sequences, so no two fresh
// parks of one run hold the same machine state even on device sessions,
// whose microcode is the same for everyone.
func shortRun(base uint64, c, k int) uint64 { return base + uint64(2*k+c)*13 }

// devicesMicrocode reads the §7 I/O service routines the devices
// sessions run: task 0 spins at emu, the disk task runs disk and the
// display task runs disp.
func devicesMicrocode(repo string) (string, error) {
	b, err := os.ReadFile(filepath.Join(repo, "examples", "microcode", "devices.dasm"))
	if err != nil {
		return "", fmt.Errorf("reading the devices microcode: %w", err)
	}
	return string(b), nil
}

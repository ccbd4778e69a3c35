package bench

import (
	"testing"

	"dorado/internal/core"
)

// BenchmarkMesaCalls times the mesacalls machine (compiled Mesa with
// recursive calls, multiply/add and shift/xor loops, the shape of
// perfbench's emulate sessions) on the predecoded and translated paths,
// in process. It reports host ns per simulated cycle and fails if the
// warmed-up machine allocates on the heap while it runs.
func BenchmarkMesaCalls(b *testing.B) {
	const (
		warm  = 200_000 // past boot, cache warmup and superblock builds
		chunk = 10_000
	)
	for _, p := range []struct {
		name string
		cfg  core.Config
	}{
		{PathPredecoded, core.Config{}},
		{PathTranslated, core.Config{Translation: core.Translation{Enable: true}}},
	} {
		b.Run(p.name, func(b *testing.B) {
			m, err := BuildMesaCallsMachine(p.cfg)
			if err != nil {
				b.Fatal(err)
			}
			m.RunCycles(warm)
			if avg := testing.AllocsPerRun(10, func() { m.RunCycles(chunk) }); avg != 0 {
				b.Fatalf("steady-state mesacalls machine allocates: %v allocs per %d cycles", avg, chunk)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RunCycles(chunk)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/cycle")
		})
	}
}

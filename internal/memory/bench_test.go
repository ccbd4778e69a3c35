package memory

import "testing"

// BenchmarkReadHit measures the hot path of the simulation: an admitted
// and committed cache hit per iteration.
func BenchmarkReadHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	s.Warm(64)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 3
		startRead(s, 0, 64, now)
		s.MD(0, now+2)
	}
}

// BenchmarkReadMissSweep measures miss handling over a large stride.
func BenchmarkReadMissSweep(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	now := uint64(0)
	va := uint32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 40
		va = (va + LineWords) & VAMask
		startRead(s, 0, va, now)
		s.MD(0, now+30)
	}
}

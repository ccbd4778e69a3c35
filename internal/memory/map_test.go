package memory

import "testing"

func TestMapFlagsRefAndDirty(t *testing.T) {
	s := newSys(t, Config{})
	s.SetMapFlags(4, MapFlags{}) // extend page 4 with flag tracking
	if f := s.MapFlagsOf(4); f.Ref || f.Dirty {
		t.Fatal("fresh page already referenced")
	}
	startRead(s, 0, 4*PageWords+3, 0)
	s.MD(0, 100)
	if f := s.MapFlagsOf(4); !f.Ref || f.Dirty {
		t.Errorf("after read: %+v", f)
	}
	startWrite(s, 0, 4*PageWords+3, 9, 200)
	if f := s.MapFlagsOf(4); !f.Dirty {
		t.Errorf("after write: %+v", f)
	}
}

func TestWriteProtectFault(t *testing.T) {
	s := newSys(t, Config{})
	s.Poke(5*PageWords, 0x1111)
	s.SetMapFlags(5, MapFlags{WP: true})
	var seen []Fault
	s.OnFault(func(f Fault) { seen = append(seen, f) })

	if !startWrite(s, 3, 5*PageWords, 0x2222, 10) {
		t.Fatal("faulting store must still be accepted (no Hold for faults)")
	}
	if got := s.Peek(5*PageWords + 0); got != 0x1111 {
		t.Errorf("write-protected data changed: %#04x", got)
	}
	if len(seen) != 1 || seen[0].Kind != FaultWP || seen[0].Task != 3 {
		t.Fatalf("fault callback = %+v", seen)
	}
	f, ok := s.TakeFault()
	if !ok || f.Kind != FaultWP || f.VA != 5*PageWords {
		t.Fatalf("TakeFault = %+v, %v", f, ok)
	}
	if _, ok := s.TakeFault(); ok {
		t.Error("fault not cleared by TakeFault")
	}
	// Reads of a WP page are fine.
	if !startRead(s, 0, 5*PageWords, 100) {
		t.Error("read of WP page refused")
	}
	if _, ok := s.LastFault(); ok {
		t.Error("read of WP page faulted")
	}
}

func TestVacantPageFaults(t *testing.T) {
	s := newSys(t, Config{})
	s.SetMapFlags(7, MapFlags{Vacant: true})
	startRead(s, 2, 7*PageWords+1, 0)
	f, ok := s.LastFault()
	if !ok || f.Kind != FaultVacant || f.Task != 2 {
		t.Fatalf("vacant read fault = %+v, %v", f, ok)
	}
	s.TakeFault()
	// MapSet re-maps the page and clears Vacant.
	s.MapSet(7, 9)
	startRead(s, 2, 7*PageWords+1, 100)
	if _, ok := s.LastFault(); ok {
		t.Error("mapped page still faulting")
	}
	if s.MapGet(7) != 9 {
		t.Errorf("translation = %d", s.MapGet(7))
	}
}

func TestFaultStats(t *testing.T) {
	s := newSys(t, Config{})
	s.SetMapFlags(8, MapFlags{WP: true})
	startWrite(s, 0, 8*PageWords, 1, 0)
	startWrite(s, 0, 8*PageWords+1, 2, 100)
	if got := s.Stats().Faults; got != 2 {
		t.Errorf("fault count = %d", got)
	}
}

func TestUnextendedPagesHaveNoFlagOverhead(t *testing.T) {
	s := newSys(t, Config{})
	startRead(s, 0, 100, 0)
	if len(s.vmapx) != 0 {
		t.Error("plain reference materialized a map entry")
	}
}

func TestStorageWrapCountsMapFault(t *testing.T) {
	s := newSys(t, Config{StorageWords: 1 << 12})
	before := s.Stats().MapFaults
	s.Poke(1<<12+5, 7) // past the end of real storage: wraps + counts
	if s.Stats().MapFaults != before+1 {
		t.Errorf("MapFaults = %d", s.Stats().MapFaults)
	}
	if s.Peek(5) != 7 {
		t.Errorf("wrapped write landed at %d", s.Peek(5))
	}
}

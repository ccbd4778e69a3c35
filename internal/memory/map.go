package memory

// The page map with protection and usage flags, from the memory-system
// companion report (Clark et al.): each virtual page carries, besides its
// real-page translation, a write-protect bit and hardware-maintained
// referenced and dirty bits; a reference that violates protection or
// touches a vacant page raises a fault, which on the Dorado woke a
// dedicated fault-handling microcode task rather than trapping the
// processor (faults are just another I/O-style event in a machine whose
// scheduler is free).

// MapFlags are the per-page map bits.
type MapFlags struct {
	// WP write-protects the page: stores fault and are suppressed.
	WP bool
	// Vacant marks the page as unmapped: any reference faults (reads
	// return garbage — here, the identity-mapped contents).
	Vacant bool
	// Ref is set by hardware on any reference to the page.
	Ref bool
	// Dirty is set by hardware on any store to the page.
	Dirty bool
}

// FaultKind classifies a map fault.
type FaultKind int

const (
	// FaultNone means no fault has occurred since the last TakeFault.
	FaultNone FaultKind = iota
	// FaultWP is a store to a write-protected page.
	FaultWP
	// FaultVacant is any reference to a vacant page.
	FaultVacant
)

// String returns the fault kind's short name ("wp", "vacant", ...).
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultWP:
		return "write-protect"
	case FaultVacant:
		return "vacant"
	}
	return "FaultKind(?)"
}

// Fault describes a map fault: the virtual address and what went wrong.
type Fault struct {
	Kind FaultKind
	VA   uint32
	Task int // the task whose reference faulted
}

// mapEntry is one page's translation and flags.
type mapEntry struct {
	rp    uint32
	flags MapFlags
}

// SetMapFlags sets the protection bits of virtual page vp (preserving the
// translation; identity if none was set).
func (s *System) SetMapFlags(vp uint32, f MapFlags) {
	vp &= VAMask / PageWords
	e := s.entry(vp)
	e.flags.WP = f.WP
	e.flags.Vacant = f.Vacant
	e.flags.Ref = f.Ref
	e.flags.Dirty = f.Dirty
	s.vmapx[vp] = e
}

// MapFlagsOf returns the flags of virtual page vp.
func (s *System) MapFlagsOf(vp uint32) MapFlags {
	vp &= VAMask / PageWords
	if e, ok := s.vmapx[vp]; ok {
		return e.flags
	}
	return MapFlags{}
}

// entry fetches (or synthesizes) the extended map entry for vp.
func (s *System) entry(vp uint32) mapEntry {
	if e, ok := s.vmapx[vp]; ok {
		return e
	}
	return mapEntry{rp: s.MapGet(vp)}
}

// LastFault returns the most recent fault, if any, without clearing it.
func (s *System) LastFault() (Fault, bool) { return s.fault, s.fault.Kind != FaultNone }

// TakeFault returns and clears the most recent fault — what the fault
// task's microcode does first.
func (s *System) TakeFault() (Fault, bool) {
	f := s.fault
	s.fault = Fault{}
	return f, f.Kind != FaultNone
}

// checkRef applies the flag side effects of a reference to va and reports
// a fault (recording it and counting it). Stores to WP pages must also be
// suppressed by the caller. Callers skip it while the map is empty: no
// page has flags yet, the common, identity-mapped case.
func (s *System) checkRef(task int, va uint32, isStore bool) (faulted bool) {
	vp := (va & VAMask) / PageWords
	e, ok := s.vmapx[vp]
	if !ok {
		return false // unextended pages have no flags to maintain
	}
	switch {
	case e.flags.Vacant:
		s.recordFault(Fault{Kind: FaultVacant, VA: va & VAMask, Task: task})
		faulted = true
	case isStore && e.flags.WP:
		s.recordFault(Fault{Kind: FaultWP, VA: va & VAMask, Task: task})
		faulted = true
	}
	e.flags.Ref = true
	if isStore && !faulted {
		e.flags.Dirty = true
	}
	s.vmapx[vp] = e
	return faulted
}

func (s *System) recordFault(f Fault) {
	s.fault = f
	s.stats.Faults++
	if s.faultNotify != nil {
		s.faultNotify(f)
	}
}

// OnFault installs a callback invoked at every map fault (the processor
// uses it to wake the fault-handling task).
func (s *System) OnFault(fn func(Fault)) { s.faultNotify = fn }

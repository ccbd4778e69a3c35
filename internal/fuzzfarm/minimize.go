package fuzzfarm

import "dorado/internal/fuzzdiff"

// minimize shrinks a diverging work unit to a smaller reproduction. Two
// moves, both verified by rerunning the differential:
//
//   - cycle shrink: the program is unchanged, so cutting Config.Cycles to
//     one past the diverging cycle must reproduce the identical divergence
//     — this always lands, and turns a 20000-cycle scan into a repro that
//     stops right after the bug;
//   - program shrink: halving Config.Instructions generates a *different*
//     program (the generator is seed+size deterministic), so each halving
//     only sticks if the new program still diverges on the same path, on
//     the same microword at the same microstore address — evidence it is
//     the same underlying bug, smaller.
//
// attempts bounds the halvings (negative disables minimization entirely);
// each attempt costs at most one extra fuzz run of the current best size.
// The returned Config is normalized and reproduces the returned
// Divergence.
func minimize(cfg fuzzdiff.Config, d *fuzzdiff.Divergence, attempts int) (fuzzdiff.Config, *fuzzdiff.Divergence) {
	cfg = cfg.Normalized()
	best, bestD := cfg, d
	if attempts < 0 {
		return best, bestD
	}
	shrinkCycles := func() {
		if best.Cycles <= bestD.Cycle+1 {
			return
		}
		trial := best
		trial.Cycles = bestD.Cycle + 1
		if d2 := sameDivergence(trial, bestD); d2 != nil {
			best, bestD = trial, d2
		}
	}
	shrinkCycles()
	for n := best.Instructions / 2; n >= 2 && attempts > 0; n /= 2 {
		attempts--
		trial := best
		trial.Instructions = n
		// A smaller program may diverge later, so give the trial the full
		// original budget; a success re-shrinks cycles right after.
		trial.Cycles = cfg.Cycles
		if d2 := sameDivergence(trial, bestD); d2 != nil {
			best, bestD = trial, d2
			shrinkCycles()
		}
	}
	return best, bestD
}

// sameDivergence reruns trial and returns its divergence if it pins the
// same microword at the same microstore address on the same path as want
// — the farm's definition of "same bug" — and nil on agreement, error, or
// a different divergence.
func sameDivergence(trial fuzzdiff.Config, want *fuzzdiff.Divergence) *fuzzdiff.Divergence {
	res, err := fuzzdiff.Run(trial)
	if err != nil {
		return nil
	}
	for _, d := range res.Divergences {
		if d.Path == want.Path && d.PC == want.PC && d.Word == want.Word {
			return d
		}
	}
	return nil
}

package fuzzfarm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// findingKey content-addresses a finding by what identifies the underlying
// bug — the diverging microstore address, the encoded microword, and the
// detail prefix (which snapshot section the mismatch surfaced in) — and
// deliberately not by seed, shape or path, so fifty seeds tripping over the
// same microinstruction dedupe to one corpus entry.
func findingKey(f *Finding) string {
	prefix, _, _ := strings.Cut(f.Detail, ":")
	h := sha256.Sum256([]byte(fmt.Sprintf("pc%04o|%#011x|%s", f.PC, f.Raw, prefix)))
	return hex.EncodeToString(h[:])[:16]
}

// writeCorpus assigns every finding its content address and banks one
// regression test per distinct key in dir. A key whose file already exists
// — written earlier in this campaign or by a previous one — is skipped,
// and the finding points at the existing entry, so the corpus accumulates
// distinct bugs across nightly runs instead of drowning in duplicates.
func writeCorpus(dir string, findings []Finding) error {
	for i := range findings {
		findings[i].Key = findingKey(&findings[i])
	}
	if len(findings) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fuzzfarm: corpus dir: %w", err)
	}
	written := map[string]bool{}
	for i := range findings {
		f := &findings[i]
		name := fmt.Sprintf("div_pc%04o_%s.go.txt", f.PC, f.Key)
		f.CorpusFile = name
		if written[f.Key] {
			continue
		}
		written[f.Key] = true
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			continue // a previous campaign already banked this bug
		}
		if err := os.WriteFile(path, []byte(corpusEntry(f)), 0o644); err != nil {
			return fmt.Errorf("fuzzfarm: write corpus entry: %w", err)
		}
	}
	return nil
}

// corpusEntry renders the on-disk regression test: a provenance header plus
// the minimized ready-to-paste repro. The .go.txt extension keeps a
// checked-in corpus out of every build — an entry becomes a real test by
// pasting it into a _test.go file in internal/fuzzdiff when triaged.
func corpusEntry(f *Finding) string {
	return fmt.Sprintf(`// fuzzfarm corpus entry %s
// shape=%s path=%s seed=%d cycle=%d task=%d pc=%04o
// word=%s (raw %#011x)
// detail: %s
// minimized: instructions=%d cycles=%d
//
// Paste into a _test.go file in internal/fuzzdiff to adopt as a regression.

%s`, f.Key, f.Shape, f.Path, f.Seed, f.Cycle, f.Task, f.PC, f.Word, f.Raw,
		f.Detail, f.MinInstructions, f.MinCycles, f.Repro)
}

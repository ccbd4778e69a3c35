// Package statetest renders snapshot documents as format version 1, for
// tests that check a build still reads the older generation and that a
// change of format left the machine state it carries alone.
package statetest

import (
	"encoding/binary"
	"fmt"

	"dorado/internal/state"
)

// VersionOne renders a version-2 snapshot document as version 1: the
// header names version 1 and the storage image (section MDAT, coded as
// its nonzero pages of page words) becomes the dense run of words words
// that version 1 holds. Every other byte stays as it is. It parses the
// pages itself rather than through state.Codec, so a test that compares
// its output with version-1 bytes checks the encoder independently.
func VersionOne(doc []byte, words, page int) ([]byte, error) {
	d, err := state.Split(doc)
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(d.Header[4:]); v != 2 {
		return nil, fmt.Errorf("statetest: document is version %d, want 2", v)
	}
	d.Header = append(d.Header[:4:4], 1, 0)
	for i, s := range d.Sections {
		if s.Tag != "MDAT" {
			continue
		}
		dense := make([]byte, 2*words)
		b := s.Body[4:]
		for range binary.LittleEndian.Uint32(s.Body) {
			at := 2 * page * int(binary.LittleEndian.Uint32(b))
			n := copy(dense[at:], b[4:4+min(2*page, len(dense)-at)])
			b = b[4+n:]
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("statetest: MDAT has %d bytes past its pages", len(b))
		}
		d.Sections[i].Body = dense
		return d.Join(), nil
	}
	return nil, fmt.Errorf("statetest: document has no MDAT section")
}

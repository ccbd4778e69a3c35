// Package state implements the versioned binary snapshot format shared by
// every machine component (processor, memory system, IFU, devices).
//
// A snapshot document is:
//
//	magic    "DSNP" (4 bytes)
//	version  uint16 little-endian (the format generation, not negotiable:
//	         a decoder accepts exactly the version it was built for)
//	sections, each:
//	    tag     4 ASCII bytes (component-chosen, unique per document)
//	    length  uint32 little-endian (body bytes)
//	    body    primitive values, little-endian, in a fixed order the
//	            owning component defines
//
// The format is deliberately rigid: no optional fields, no per-field tags,
// no skipping. Determinism is the point — Snapshot→Restore→Snapshot must be
// byte-identical, so every writer emits values in one canonical order (maps
// are sorted before encoding) and every reader consumes exactly what was
// written. Any structural change to any section bumps Version, which makes
// old snapshots (and old golden hashes) invalid rather than silently
// misread.
//
// Decoding is strict three ways: a section must exist when opened, must be
// fully consumed before the next section is opened, and Finish fails if any
// section in the document was never opened. A machine restored from a
// snapshot therefore has exactly the component set the snapshot was taken
// from (e.g. the same devices attached), or the restore fails loudly.
package state

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// magic identifies a snapshot document ("Dorado SNaPshot").
const magic = "DSNP"

// Version is the current format generation. Bump it on ANY change to any
// section's layout; see DESIGN.md "Machine snapshots" for the rules.
const Version = 1

// Encoder builds a snapshot document. Create with NewEncoder, open a
// section with Section, append primitives, and call Bytes to finish.
type Encoder struct {
	data []byte
	sect int // offset of the open section's length field, or -1
}

// NewEncoder starts a document with the magic and version header, with
// room for a document of size bytes: a writer that knows about how large
// its document is builds it in one allocation instead of growing the
// buffer as it goes.
func NewEncoder(size int) *Encoder {
	e := &Encoder{sect: -1, data: make([]byte, 0, max(size, len(magic)+2))}
	e.data = append(e.data, magic...)
	e.data = binary.LittleEndian.AppendUint16(e.data, Version)
	return e
}

// Section closes any open section and starts a new one. Tags are exactly
// four bytes; a malformed tag is a programming error.
func (e *Encoder) Section(tag string) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("state: section tag %q is not 4 bytes", tag))
	}
	e.closeSection()
	e.data = append(e.data, tag...)
	e.sect = len(e.data)
	e.data = append(e.data, 0, 0, 0, 0) // length, patched by closeSection
}

func (e *Encoder) closeSection() {
	if e.sect < 0 {
		return
	}
	binary.LittleEndian.PutUint32(e.data[e.sect:], uint32(len(e.data)-e.sect-4))
	e.sect = -1
}

// Bytes closes the open section and returns the finished document.
func (e *Encoder) Bytes() []byte {
	e.closeSection()
	return e.data
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.data = append(e.data, v) }

// U16 appends a 16-bit value.
func (e *Encoder) U16(v uint16) { e.data = binary.LittleEndian.AppendUint16(e.data, v) }

// U32 appends a 32-bit value.
func (e *Encoder) U32(v uint32) { e.data = binary.LittleEndian.AppendUint32(e.data, v) }

// U64 appends a 64-bit value.
func (e *Encoder) U64(v uint64) { e.data = binary.LittleEndian.AppendUint64(e.data, v) }

// I8 appends a signed byte.
func (e *Encoder) I8(v int8) { e.data = append(e.data, uint8(v)) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.data = append(e.data, 1)
	} else {
		e.data = append(e.data, 0)
	}
}

// U16s appends a run of 16-bit values with no count prefix (fixed-size
// arrays whose length both sides know). The bytes are exactly those of a
// U16 per value; the run is written in bulk, four words per 64-bit
// store, because the storage image (a million words) rides through here.
func (e *Encoder) U16s(vs []uint16) {
	n := len(e.data)
	e.data = slices.Grow(e.data, 2*len(vs))[:n+2*len(vs)]
	b := e.data[n:]
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		binary.LittleEndian.PutUint64(b[2*i:], uint64(vs[i])|uint64(vs[i+1])<<16|uint64(vs[i+2])<<32|uint64(vs[i+3])<<48)
	}
	for ; i < len(vs); i++ {
		binary.LittleEndian.PutUint16(b[2*i:], vs[i])
	}
}

// Bytes32 appends a uint32 length prefix followed by raw bytes.
func (e *Encoder) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.data = append(e.data, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) { e.Bytes32([]byte(s)) }

// Decoder reads a snapshot document written by Encoder. All read methods
// are sticky-error: after the first failure they return zero values, and
// Err (or Finish) reports what went wrong.
type Decoder struct {
	sections map[string][]byte
	order    []string
	opened   map[string]bool
	cur      []byte
	curTag   string
	err      error
}

// NewDecoder parses the document structure (header and section framing).
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < len(magic)+2 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("state: not a snapshot (bad magic)")
	}
	v := binary.LittleEndian.Uint16(data[len(magic):])
	if v != Version {
		return nil, fmt.Errorf("state: snapshot format version %d, this build reads version %d", v, Version)
	}
	d := &Decoder{sections: map[string][]byte{}, opened: map[string]bool{}}
	rest := data[len(magic)+2:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return nil, fmt.Errorf("state: truncated section header (%d bytes left)", len(rest))
		}
		tag := string(rest[:4])
		n := binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("state: section %q claims %d bytes, %d remain", tag, n, len(rest))
		}
		if _, dup := d.sections[tag]; dup {
			return nil, fmt.Errorf("state: duplicate section %q", tag)
		}
		d.sections[tag] = rest[:n]
		d.order = append(d.order, tag)
		rest = rest[n:]
	}
	return d, nil
}

// Section opens the named section for reading. The previously open section
// must have been fully consumed.
func (d *Decoder) Section(tag string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.cur) != 0 {
		d.err = fmt.Errorf("state: section %q has %d unread bytes", d.curTag, len(d.cur))
		return d.err
	}
	body, ok := d.sections[tag]
	if !ok {
		d.err = fmt.Errorf("state: snapshot has no section %q", tag)
		return d.err
	}
	if d.opened[tag] {
		d.err = fmt.Errorf("state: section %q opened twice", tag)
		return d.err
	}
	d.opened[tag] = true
	d.cur, d.curTag = body, tag
	return nil
}

// Has reports whether the document contains the named section (for callers
// that branch on optional components, e.g. devices).
func (d *Decoder) Has(tag string) bool {
	_, ok := d.sections[tag]
	return ok
}

// Err returns the first decoding error.
func (d *Decoder) Err() error { return d.err }

// Finish verifies the document was consumed completely: no decode errors,
// the last section fully read, and every section opened.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.cur) != 0 {
		return fmt.Errorf("state: section %q has %d unread bytes", d.curTag, len(d.cur))
	}
	for _, tag := range d.order {
		if !d.opened[tag] {
			return fmt.Errorf("state: section %q was not consumed (component mismatch?)", tag)
		}
	}
	return nil
}

// RawSection is one framed section of a snapshot document, split out by
// Split: the four-byte tag and the body bytes exactly as written.
type RawSection struct {
	Tag  string
	Body []byte
}

// Doc is the structural view of a snapshot document: the header (magic
// plus version, verbatim) and the framed sections in document order.
// Split produces it and Join reverses it byte-exactly; the store's
// section-level dedupe rests on that round trip.
type Doc struct {
	// Header is the document prefix before the first section: the magic
	// and the little-endian format version, byte-exact.
	Header []byte
	// Sections are the framed sections in the order they were written.
	Sections []RawSection
}

// Split parses only the framing of a snapshot document — header, then
// (tag, length, body) triples — without interpreting any section body and
// without checking the format version. Deduplicating storage must keep
// working across format generations, so Split accepts any version as long
// as the framing is intact; NewDecoder is where version strictness lives.
// Section bodies alias data (no copy).
func Split(data []byte) (Doc, error) {
	hdr := len(magic) + 2
	if len(data) < hdr || string(data[:len(magic)]) != magic {
		return Doc{}, fmt.Errorf("state: not a snapshot (bad magic)")
	}
	d := Doc{Header: data[:hdr]}
	rest := data[hdr:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return Doc{}, fmt.Errorf("state: truncated section header (%d bytes left)", len(rest))
		}
		tag := string(rest[:4])
		n := binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if uint64(n) > uint64(len(rest)) {
			return Doc{}, fmt.Errorf("state: section %q claims %d bytes, %d remain", tag, n, len(rest))
		}
		d.Sections = append(d.Sections, RawSection{Tag: tag, Body: rest[:n]})
		rest = rest[n:]
	}
	return d, nil
}

// Join reassembles the document Split took apart. For any data Split
// accepts, Join(Split(data)) == data, byte for byte — the reassembly
// invariant the content-addressed store verifies by rehashing.
func (d Doc) Join() []byte {
	n := len(d.Header)
	for _, s := range d.Sections {
		n += 8 + len(s.Body)
	}
	out := make([]byte, 0, n)
	out = append(out, d.Header...)
	for _, s := range d.Sections {
		out = append(out, s.Tag...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Body)))
		out = append(out, s.Body...)
	}
	return out
}

// take returns the next n bytes of the open section.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.cur) < n {
		d.err = fmt.Errorf("state: section %q: short read (%d bytes wanted, %d left)", d.curTag, n, len(d.cur))
		return nil
	}
	b := d.cur[:n]
	d.cur = d.cur[n:]
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a 16-bit value.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I8 reads a signed byte.
func (d *Decoder) I8() int8 { return int8(d.U8()) }

// Bool reads a boolean; any byte other than 0 or 1 is a decode error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("state: section %q: bad boolean", d.curTag)
		}
		return false
	}
}

// U16s fills a fixed-size destination with 16-bit values, reading the
// whole run with one take (so a short section fails before any word is
// written) and four words per 64-bit load.
func (d *Decoder) U16s(dst []uint16) {
	b := d.take(2 * len(dst))
	if b == nil {
		return
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		w := binary.LittleEndian.Uint64(b[2*i:])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = uint16(w), uint16(w>>16), uint16(w>>32), uint16(w>>48)
	}
	for ; i < len(dst); i++ {
		dst[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
}

// Bytes32 reads a uint32-length-prefixed byte string.
func (d *Decoder) Bytes32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

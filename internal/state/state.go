// Package state implements the versioned binary snapshot format shared by
// every machine component (processor, memory system, IFU, devices).
//
// A snapshot document is:
//
//	magic    "DSNP" (4 bytes)
//	version  uint16 little-endian (the format generation: a decoder reads
//	         this generation and the one before it, an encoder writes
//	         only this one)
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
// written. Any structural change to any section bumps Version, so an old
// snapshot is never silently misread: it is either read by the code that
// knows its layout or refused. Version 2 differs from version 1 only in
// the Pages primitive (a word run coded as its nonzero pages instead of
// densely), and Decode still reads version 1.
//
// A component describes its state once, as a sequence of Codec calls on
// pointers to its fields: the same description encodes (each call appends
// the value) and decodes (each call stores into it). Sections therefore
// decode in the order they are written, and decoding is strict three
// ways: the section a description opens must be the document's next one,
// the one before it must be fully consumed, and Finish fails if the
// document goes on past the last one opened. A machine restored from a
// snapshot therefore has exactly the component set the snapshot was taken
// from (e.g. the same devices attached), or the restore fails loudly.
package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// magic identifies a snapshot document ("Dorado SNaPshot").
const magic = "DSNP"

// Version is the current format generation. Bump it on ANY change to any
// section's layout; see DESIGN.md "Machine snapshots" for the rules.
const Version = 2

// Codec is one pass over a snapshot document, in one direction: Encode
// starts a document that each call appends to, Decode opens one that each
// call reads from and stores into the pointer it was given. Decoding is
// sticky-error: after the first failure nothing more is read or stored,
// and Err (or Finish) reports what went wrong.
type Codec struct {
	decoding bool
	version  uint16 // the document's format generation
	err      error

	// The document (encoding: so far) and the offset of the open
	// section's length field, or -1. Decoding reads data[off:end], the
	// unread rest of the open section.
	data     []byte
	sect     int
	off, end int
}

// Encode starts a document with the magic and version header, with room
// for a document of size bytes: a writer that knows about how large its
// document is builds it in one allocation instead of growing the buffer
// as it goes.
func Encode(size int) *Codec {
	c := &Codec{sect: -1, version: Version, data: make([]byte, 0, max(size, len(magic)+2))}
	c.data = append(c.data, magic...)
	c.data = binary.LittleEndian.AppendUint16(c.data, Version)
	return c
}

// Decode checks the document's header and section framing and opens it
// for decoding. It reads versions 1 and 2.
func Decode(data []byte) (*Codec, error) {
	if err := frames(data, nil); err != nil {
		return nil, err
	}
	v := binary.LittleEndian.Uint16(data[len(magic):])
	if v != 1 && v != Version {
		return nil, fmt.Errorf("state: snapshot format version %d, this build reads versions 1 and %d", v, Version)
	}
	hdr := len(magic) + 2
	return &Codec{decoding: true, version: v, data: data, sect: -1, off: hdr, end: hdr}, nil
}

// Decoding reports the direction: true while decoding, false while
// encoding.
func (c *Codec) Decoding() bool { return c.decoding }

// Decoded reports whether the codec is decoding and every value so far
// decoded cleanly: a description that codes a field through a copy (a
// conversion, or a value to check first) stores the copy only then.
func (c *Codec) Decoded() bool { return c.decoding && c.err == nil }

// Section starts a section (encoding) or opens the document's next one
// (decoding), which must carry tag and may be opened only once the
// previous one is fully consumed. Tags are exactly four bytes; a
// malformed tag is a programming error.
func (c *Codec) Section(tag string) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("state: section tag %q is not 4 bytes", tag))
	}
	if !c.decoding {
		c.closeSection()
		c.data = append(c.data, tag...)
		c.sect = len(c.data)
		c.data = append(c.data, 0, 0, 0, 0) // length, patched by closeSection
		return
	}
	switch next := c.data[c.end:]; {
	case c.err != nil:
	case c.off != c.end:
		c.Fail(fmt.Errorf("state: section %q has %d unread bytes", c.tag(), c.end-c.off))
	case len(next) == 0:
		c.Fail(fmt.Errorf("state: snapshot ends before section %q", tag))
	case string(next[:4]) != tag:
		c.Fail(fmt.Errorf("state: snapshot has section %q where %q belongs", next[:4], tag))
	default:
		// Decode checked the framing, so the section lies within data.
		c.sect = c.end + 4
		c.off = c.sect + 4
		c.end = c.off + int(binary.LittleEndian.Uint32(next[4:]))
	}
}

// tag returns the open section's tag.
func (c *Codec) tag() string { return string(c.data[c.sect-4 : c.sect]) }

func (c *Codec) closeSection() {
	if c.sect < 0 {
		return
	}
	binary.LittleEndian.PutUint32(c.data[c.sect:], uint32(len(c.data)-c.sect-4))
	c.sect = -1
}

// Bytes closes the open section and returns the finished document.
func (c *Codec) Bytes() []byte {
	c.closeSection()
	return c.data
}

// Fail records err as the decoding error unless one is already recorded:
// a description calls it for a decoded value the machine cannot hold.
// Encoding writes whatever the machine holds, so it ignores Fail.
func (c *Codec) Fail(err error) {
	if c.decoding && c.err == nil {
		c.err = err
	}
}

// Err returns the first decoding error.
func (c *Codec) Err() error { return c.err }

// Finish verifies the document was consumed completely: no decode errors,
// the last section fully read, and no section after it.
func (c *Codec) Finish() error {
	switch {
	case c.err != nil:
		return c.err
	case c.off != c.end:
		return fmt.Errorf("state: section %q has %d unread bytes", c.tag(), c.end-c.off)
	case c.end != len(c.data):
		return fmt.Errorf("state: section %q was not consumed (component mismatch?)", c.data[c.end:c.end+4])
	}
	return nil
}

// take returns the next n bytes of the open section. After an error, or
// on a short read (which it records), it returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.end-c.off < n {
		c.Fail(fmt.Errorf("state: section %q: short read (%d bytes wanted, %d left)", c.tag(), n, c.end-c.off))
		return nil
	}
	c.off += n
	return c.data[c.off-n : c.off]
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if !c.decoding {
		c.data = append(c.data, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// U16 codes a 16-bit value.
func (c *Codec) U16(p *uint16) {
	if !c.decoding {
		c.data = binary.LittleEndian.AppendUint16(c.data, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

// U32 codes a 32-bit value.
func (c *Codec) U32(p *uint32) {
	if !c.decoding {
		c.data = binary.LittleEndian.AppendUint32(c.data, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U64 codes a 64-bit value.
func (c *Codec) U64(p *uint64) {
	if !c.decoding {
		c.data = binary.LittleEndian.AppendUint64(c.data, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// Bool codes a boolean as one byte, 0 or 1; decoding refuses any other.
func (c *Codec) Bool(p *bool) { c.Bits(p) }

// Bits codes up to eight booleans as one byte, flags[i] in bit i.
// Decoding refuses a byte with a bit set past the last flag.
func (c *Codec) Bits(flags ...*bool) {
	var v uint8
	for i, f := range flags {
		if *f {
			v |= 1 << i
		}
	}
	c.U8(&v)
	if v>>len(flags) != 0 {
		c.Fail(fmt.Errorf("state: section %q: flag byte %#02x has bits past its %d flags", c.tag(), v, len(flags)))
	} else if c.Decoded() {
		for i, f := range flags {
			*f = v&(1<<i) != 0
		}
	}
}

// Int codes an int in [0, n) as one byte; decoding refuses a value
// outside that range.
func (c *Codec) Int(p *int, n int) {
	v := uint8(*p)
	c.U8(&v)
	if int(v) >= n {
		c.Fail(fmt.Errorf("state: section %q: value %d out of range [0, %d)", c.tag(), v, n))
	} else if c.Decoded() {
		*p = int(v)
	}
}

// Count codes a length as a 32-bit value. Decoding refuses a count whose
// elements, at least size (one or more) bytes each, the open section's
// remaining bytes cannot hold, before anything is sized by it.
func (c *Codec) Count(p *int, size int) {
	v := uint32(*p)
	c.U32(&v)
	if c.Decoded() {
		if uint64(v)*uint64(size) > uint64(c.end-c.off) {
			c.Fail(fmt.Errorf("state: section %q: count %d of %d-byte elements, %d bytes left", c.tag(), v, size, c.end-c.off))
			return
		}
		*p = int(v)
	}
}

// List codes a slice as its Count and then each element through each,
// every element at least size bytes. Decoding reuses the slice's backing
// array when it is large enough.
func List[T any](c *Codec, s *[]T, size int, each func(*T)) {
	n := len(*s)
	c.Count(&n, size)
	if c.err != nil {
		return
	}
	if c.decoding {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

// U16s codes a run of 16-bit values with no count prefix (fixed-size
// arrays whose length both sides know). The bytes are exactly those of a
// U16 per value; the run moves in bulk, four words per 64-bit load or
// store. Decoding reads the whole run with one take, so a short section
// fails before any word is stored.
func (c *Codec) U16s(vs []uint16) {
	if !c.decoding {
		c.appendWords(vs)
	} else if b := c.take(2 * len(vs)); c.err == nil {
		getWords(vs, b)
	}
}

// U64s codes a run of 64-bit values with no count prefix, held as their
// coding: run holds a little-endian U64 per value, exactly the bytes a
// U64 per value writes. Encoding appends run in one copy and returns it.
// Decoding stores nothing: it reads the document's len(run)-byte run with
// one take and returns it, or nil after an error (a short section
// included), so the caller compares it with what it holds and decodes
// only the values that differ.
func (c *Codec) U64s(run []byte) []byte {
	if !c.decoding {
		c.data = append(c.data, run...)
		return run
	}
	return c.take(len(run))
}

// Same codes a run the caller holds already coded, such as a shared
// table's rows. Encoding appends held and reports true. Decoding reports
// whether the document's next len(held) bytes are held, and reads them
// only then: a caller that sees false codes the run value by value. A
// short section, or an earlier error, reads as false and records nothing.
func (c *Codec) Same(held []byte) bool {
	if !c.decoding {
		c.data = append(c.data, held...)
		return true
	}
	if c.err != nil || !bytes.HasPrefix(c.data[c.off:c.end], held) {
		return false
	}
	c.off += len(held)
	return true
}

// appendWords appends vs, a U16 per word, four words per 64-bit store.
func (c *Codec) appendWords(vs []uint16) {
	n := len(c.data)
	c.data = slices.Grow(c.data, 2*len(vs))[:n+2*len(vs)]
	b := c.data[n:]
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		binary.LittleEndian.PutUint64(b[2*i:], quad(vs[i:]))
	}
	for ; i < len(vs); i++ {
		binary.LittleEndian.PutUint16(b[2*i:], vs[i])
	}
}

// getWords stores the 2*len(vs) bytes of b, a U16 per word, into vs, four
// words per 64-bit load.
func getWords(vs []uint16, b []byte) {
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		w := binary.LittleEndian.Uint64(b[2*i:])
		vs[i], vs[i+1], vs[i+2], vs[i+3] = uint16(w), uint16(w>>16), uint16(w>>32), uint16(w>>48)
	}
	for ; i < len(vs); i++ {
		vs[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
}

// Pages codes a run of words held in 256-word pages: table[i] holds the
// run's words from 256*i on, and the words of its last page past the
// run's length, words, are not part of it. Each page is either zero, the
// caller's page of zero words, which nothing may write, or words of its
// own. The coding is a 32-bit count, then each page that holds a nonzero
// word, in increasing order, as its 32-bit index and its words (the last
// page's may be short), so a run that is nearly all zero, like the
// storage image, costs only the pages that hold data. Encoding walks only
// the pages with words of their own and skips those that are all zero,
// so every run has exactly one encoding. Decoding checks every listed
// page before it stores a word: it refuses a count the section cannot
// hold, a page past the run, a page not above the one before it and a
// listed page that is all zero. Then it fills the listed pages, giving
// any that reads zero words of its own, and clears the other pages with
// words of their own: a table with none is not cleared at all. In a
// version-1 document the run is dense, as U16s codes it. A table that
// does not hold exactly the run's pages is a programming error.
func (c *Codec) Pages(table []*[256]uint16, words int, zero *[256]uint16) {
	const page = len(zero)
	if len(table) != (words+page-1)/page {
		panic(fmt.Sprintf("state: %d pages of %d words hold a %d-word run", len(table), page, words))
	}
	switch {
	case !c.decoding:
		at := len(c.data)
		c.data = append(c.data, 0, 0, 0, 0) // the count, patched below
		n := 0
		for i, p := range table {
			if w := p[:min(page, words-i*page)]; p != zero && !isZero(w) {
				c.data = binary.LittleEndian.AppendUint32(c.data, uint32(i))
				c.appendWords(w)
				n++
			}
		}
		binary.LittleEndian.PutUint32(c.data[at:], uint32(n))
	case c.version == 1:
		if b := c.take(2 * words); c.err == nil {
			for i := range table {
				fill(table, i, zero, b[2*i*page:2*min((i+1)*page, words)])
			}
		}
	default:
		c.decodePages(table, words, zero)
	}
}

// decodePages reads what Pages encodes: one pass checks the listed pages
// and measures them, a second stores them.
func (c *Codec) decodePages(table []*[256]uint16, words int, zero *[256]uint16) {
	const page = len(zero)
	var n int
	if c.Count(&n, 4+2); c.err != nil { // an index and at least one word
		return
	}
	rest, size, prev := c.data[c.off:c.end], 0, -1
	for range n {
		if len(rest) < 4 {
			c.take(size + 4) // records the short read
			return
		}
		i := binary.LittleEndian.Uint32(rest)
		if uint64(i) >= uint64(len(table)) {
			c.Fail(fmt.Errorf("state: section %q: page %d is past the %d-word run", c.tag(), i, words))
			return
		}
		if int(i) <= prev {
			c.Fail(fmt.Errorf("state: section %q: page %d follows page %d", c.tag(), i, prev))
			return
		}
		w := 2 * min(page, words-int(i)*page)
		if len(rest) < 4+w {
			c.take(size + 4 + w) // records the short read
			return
		}
		if zeroBytes(rest[4 : 4+w]) {
			c.Fail(fmt.Errorf("state: section %q: page %d is listed but all zero", c.tag(), i))
			return
		}
		prev, rest, size = int(i), rest[4+w:], size+4+w
	}
	b := c.take(size)
	for i := range table {
		var p []byte
		if len(b) > 0 && int(binary.LittleEndian.Uint32(b)) == i {
			w := 2 * min(page, words-i*page)
			p, b = b[4:4+w], b[4+w:]
		}
		fill(table, i, zero, p)
	}
}

// fill stores b, page i's words coded a U16 per word, into table. A page
// whose b holds a nonzero word gets words of its own if it reads zero;
// for b empty or all zero, a page with words of its own is cleared, and
// one reading zero is left as it is.
func fill(table []*[256]uint16, i int, zero *[256]uint16, b []byte) {
	switch p := table[i]; {
	case !zeroBytes(b):
		if p == zero {
			p = new([256]uint16)
			table[i] = p
		}
		getWords(p[:len(b)/2], b)
	case p != zero:
		clear(p[:])
	}
}

// zeroBytes reports whether every byte of b is zero.
func zeroBytes(b []byte) bool { return len(b) == 0 || bytes.Count(b, []byte{0}) == len(b) }

// isZero reports whether every word of s is zero. It tests 32 words per
// iteration, four at a time: the compiler combines each group of four
// 16-bit loads into one 64-bit load, which makes the scan of a million
// mostly zero words about three times as fast as ORing the 16-bit words
// themselves.
func isZero(s []uint16) bool {
	for ; len(s) >= 32; s = s[32:] {
		if quad(s[0:])|quad(s[4:])|quad(s[8:])|quad(s[12:])|quad(s[16:])|quad(s[20:])|quad(s[24:])|quad(s[28:]) != 0 {
			return false
		}
	}
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// quad returns the first four words of s as one little-endian 64-bit
// value.
func quad(s []uint16) uint64 {
	return uint64(s[0]) | uint64(s[1])<<16 | uint64(s[2])<<32 | uint64(s[3])<<48
}

// Bytes32 codes a byte run as a 32-bit length and the bytes. Decoding
// refuses a run longer than limit and stores into the slice's backing
// array when it is large enough.
func (c *Codec) Bytes32(p *[]byte, limit int) {
	n := len(*p)
	c.Count(&n, 1)
	if !c.decoding {
		c.data = append(c.data, *p...)
	} else if n > limit {
		c.Fail(fmt.Errorf("state: section %q: %d-byte run, at most %d fit", c.tag(), n, limit))
	} else if b := c.take(n); c.err == nil {
		*p = append((*p)[:0], b...)
	}
}

// String codes a string as a 32-bit length and its bytes. Decoding keeps
// the string it replaces when the bytes are the same.
func (c *Codec) String(p *string) {
	n := len(*p)
	c.Count(&n, 1)
	if !c.decoding {
		c.data = append(c.data, *p...)
	} else if b := c.take(n); c.err == nil && string(b) != *p {
		*p = string(b)
	}
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
// as the framing is intact; Decode is where version strictness lives.
// Section bodies alias data (no copy).
func Split(data []byte) (Doc, error) {
	var d Doc
	err := frames(data, func(tag string, body []byte) {
		d.Sections = append(d.Sections, RawSection{Tag: tag, Body: body})
	})
	if err != nil {
		return Doc{}, err
	}
	d.Header = data[:len(magic)+2]
	return d, nil
}

// frames checks data's magic and section framing and, when each is not
// nil, passes it every section in document order.
func frames(data []byte, each func(tag string, body []byte)) error {
	hdr := len(magic) + 2
	if len(data) < hdr || string(data[:len(magic)]) != magic {
		return fmt.Errorf("state: not a snapshot (bad magic)")
	}
	rest := data[hdr:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return fmt.Errorf("state: truncated section header (%d bytes left)", len(rest))
		}
		tag := rest[:4]
		n := binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if uint64(n) > uint64(len(rest)) {
			return fmt.Errorf("state: section %q claims %d bytes, %d remain", tag, n, len(rest))
		}
		if each != nil {
			each(string(tag), rest[:n])
		}
		rest = rest[n:]
	}
	return nil
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

package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	u8, u16, u32, u64, i8 := uint8(0x12), uint16(0x3456), uint32(0x789ABCDE), uint64(0x1122334455667788), int(-3)
	yes, no := true, false
	three := []uint16{1, 2, 3}
	hello, world := []byte("hello"), "world"
	e := Encode(0)
	e.Section("AAAA")
	e.U8(&u8)
	e.U16(&u16)
	e.U32(&u32)
	e.U64(&u64)
	i8b := uint8(int8(i8))
	e.U8(&i8b)
	e.Bool(&yes)
	e.Bool(&no)
	e.Section("BBBB")
	e.U16s(three)
	e.Bytes32(&hello, 5)
	e.String(&world)
	doc := e.Bytes()

	d, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	var (
		g8, gi8 uint8
		g16     uint16
		g32     uint32
		g64     uint64
		gy, gn  = false, true
		g3      [3]uint16
		gb      []byte
		gs      string
	)
	d.Section("AAAA")
	d.U8(&g8)
	d.U16(&g16)
	d.U32(&g32)
	d.U64(&g64)
	d.U8(&gi8)
	d.Bool(&gy)
	d.Bool(&gn)
	if g8 != 0x12 {
		t.Errorf("U8 = %#x", g8)
	}
	if g16 != 0x3456 {
		t.Errorf("U16 = %#x", g16)
	}
	if g32 != 0x789ABCDE {
		t.Errorf("U32 = %#x", g32)
	}
	if g64 != 0x1122334455667788 {
		t.Errorf("U64 = %#x", g64)
	}
	if int8(gi8) != -3 {
		t.Errorf("I8 = %d", int8(gi8))
	}
	if !gy || gn {
		t.Errorf("Bool round trip failed")
	}
	d.Section("BBBB")
	d.U16s(g3[:])
	if g3 != [3]uint16{1, 2, 3} {
		t.Errorf("U16s = %v", g3)
	}
	if d.Bytes32(&gb, 5); !bytes.Equal(gb, []byte("hello")) {
		t.Errorf("Bytes32 = %q", gb)
	}
	if d.String(&gs); gs != "world" {
		t.Errorf("String = %q", gs)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		v := uint64(42)
		e := Encode(0)
		e.Section("TTTT")
		e.U64(&v)
		return e.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical encodes differ")
	}
}

// doc2 is a two-section document: a uint32 7 in AAAA, a byte 1 in ZZZZ.
func doc2() []byte {
	seven, one := uint32(7), uint8(1)
	e := Encode(0)
	e.Section("AAAA")
	e.U32(&seven)
	e.Section("ZZZZ")
	e.U8(&one)
	return e.Bytes()
}

func TestStrictness(t *testing.T) {
	doc := doc2()
	var b uint8
	var w uint32
	var q uint64

	// Missing section.
	d, _ := Decode(doc)
	if d.Section("NOPE"); d.Err() == nil {
		t.Error("opening a missing section succeeded")
	}
	d, _ = Decode(doc[:len(doc)-9]) // AAAA only
	d.Section("AAAA")
	d.U32(&w)
	if d.Section("ZZZZ"); d.Err() == nil {
		t.Error("opening a section past the end succeeded")
	}

	// Partially consumed section.
	d, _ = Decode(doc)
	if d.Section("AAAA"); d.Err() != nil {
		t.Fatal(d.Err())
	}
	d.U8(&b)
	if d.Section("ZZZZ"); d.Err() == nil {
		t.Error("opening the next section with unread bytes succeeded")
	}

	// Unopened section caught by Finish.
	d, _ = Decode(doc)
	if d.Section("AAAA"); d.Err() != nil {
		t.Fatal(d.Err())
	}
	d.U32(&w)
	if err := d.Finish(); err == nil {
		t.Error("Finish accepted a document with an unopened section")
	}

	// Over-read inside a section.
	d, _ = Decode(doc)
	if d.Section("AAAA"); d.Err() != nil {
		t.Fatal(d.Err())
	}
	d.U64(&q)
	if d.Err() == nil {
		t.Error("short read not detected")
	}
}

// TestSectionOrder: sections decode in the order they are written. A
// document whose two sections are swapped is refused before anything is
// stored, and Finish refuses one that goes on past the last section the
// description opens, whether with a new tag or with that section again.
func TestSectionOrder(t *testing.T) {
	decode := func(doc []byte) (uint32, uint8, error) {
		d, err := Decode(doc)
		if err != nil {
			return 0, 0, err
		}
		var w uint32
		var b uint8
		d.Section("AAAA")
		d.U32(&w)
		d.Section("ZZZZ")
		d.U8(&b)
		return w, b, d.Finish()
	}
	if w, b, err := decode(doc2()); err != nil || w != 7 || b != 1 {
		t.Fatalf("in order: %d, %d, %v", w, b, err)
	}
	split := func(doc []byte) Doc {
		d, err := Split(doc)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	swapped := split(doc2())
	swapped.Sections[0], swapped.Sections[1] = swapped.Sections[1], swapped.Sections[0]
	if w, _, err := decode(swapped.Join()); err == nil || w != 0 {
		t.Errorf("swapped sections: stored %d, error %v", w, err)
	}
	for _, tag := range []string{"XTRA", "ZZZZ"} {
		d := split(doc2())
		d.Sections = append(d.Sections, RawSection{Tag: tag, Body: []byte{1}})
		if _, _, err := decode(d.Join()); err == nil {
			t.Errorf("a %s section after the last was accepted", tag)
		}
	}
}

// TestDecodeStoresNothingAfterAnError: once a value is refused, no later
// call reads or stores anything, and Finish reports the first error.
func TestDecodeStoresNothingAfterAnError(t *testing.T) {
	d, err := Decode(doc2())
	if err != nil {
		t.Fatal(err)
	}
	d.Section("AAAA")
	n := 3
	d.Int(&n, 7) // the first byte of 7 is 7: out of [0, 7)
	if d.Err() == nil || n != 3 {
		t.Fatalf("Int stored %d, error %v", n, d.Err())
	}
	b := uint8(9)
	if d.U8(&b); b != 9 {
		t.Fatalf("U8 after an error stored %d", b)
	}
	first := d.Err()
	d.Fail(errors.New("second"))
	if err := d.Finish(); err != first {
		t.Fatalf("Finish = %v, want the first error %v", err, first)
	}
}

// TestBitsAndBool: Bits packs flags into one byte, flag i in bit i, and
// decoding refuses a byte with a bit past the last flag (a Bool is one
// flag, so it accepts only 0 and 1).
func TestBitsAndBool(t *testing.T) {
	a, b, c := true, false, true
	e := Encode(0)
	e.Section("BITS")
	e.Bits(&a, &b, &c)
	doc := e.Bytes()
	if got := doc[len(doc)-1]; got != 0b101 {
		t.Fatalf("Bits byte = %#b, want 0b101", got)
	}
	d, _ := Decode(doc)
	d.Section("BITS")
	var x, y, z bool
	if d.Bits(&x, &y, &z); !x || y || !z || d.Finish() != nil {
		t.Fatalf("Bits decoded %v %v %v (%v)", x, y, z, d.Finish())
	}
	for _, c := range []struct {
		flags int
		v     uint8
	}{{3, 0b1000}, {1, 2}, {7, 0x80}} {
		e := Encode(0)
		e.Section("BITS")
		e.U8(&c.v)
		d, _ := Decode(e.Bytes())
		d.Section("BITS")
		fs := make([]*bool, c.flags)
		for i := range fs {
			fs[i] = new(bool)
		}
		if d.Bits(fs...); d.Err() == nil {
			t.Errorf("%d flags accepted byte %#02x", c.flags, c.v)
		}
	}
}

// TestCountRefusedBeforeSizing: a count the section's remaining bytes
// cannot hold is refused before any slice is sized by it, and a count
// that fits decodes into the slice's backing array when it is large
// enough.
func TestCountRefusedBeforeSizing(t *testing.T) {
	list := func(vs []uint64, claim uint32) []byte {
		e := Encode(0)
		e.Section("LIST")
		e.U32(&claim)
		for i := range vs {
			e.U64(&vs[i])
		}
		return e.Bytes()
	}
	d, _ := Decode(list([]uint64{1, 2}, 1<<20))
	d.Section("LIST")
	var got []uint64
	if List(d, &got, 8, d.U64); d.Err() == nil || got != nil {
		t.Fatalf("count 2^20 over 2 elements: %d elements, error %v", len(got), d.Err())
	}

	d, _ = Decode(list([]uint64{7, 8}, 2))
	d.Section("LIST")
	got = make([]uint64, 5)
	backing := &got[0]
	if List(d, &got, 8, d.U64); d.Finish() != nil || len(got) != 2 || got[0] != 7 || got[1] != 8 || &got[0] != backing {
		t.Fatalf("List decoded %v (%v), reused backing array: %v", got, d.Finish(), &got[0] == backing)
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := Decode([]byte("junk")); err == nil {
		t.Error("bad magic accepted")
	}
	doc := Encode(0).Bytes()
	doc[4] = 0xFF // corrupt version
	doc[5] = 0xFF
	if _, err := Decode(doc); err == nil {
		t.Error("future version accepted")
	}
	// Truncated section framing.
	one := uint64(1)
	e := Encode(0)
	e.Section("AAAA")
	e.U64(&one)
	doc = e.Bytes()
	if _, err := Decode(doc[:len(doc)-2]); err == nil {
		t.Error("truncated section accepted")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	word, payload := uint32(0xDEADBEEF), "payload"
	e := Encode(0)
	e.Section("AAAA")
	e.U32(&word)
	e.Section("BBBB")
	e.String(&payload)
	e.Section("CCCC") // empty section: framing only
	doc := e.Bytes()

	d, err := Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Header) != 6 || string(d.Header[:4]) != "DSNP" {
		t.Fatalf("header = % x", d.Header)
	}
	if len(d.Sections) != 3 || d.Sections[0].Tag != "AAAA" || d.Sections[2].Tag != "CCCC" {
		t.Fatalf("sections = %+v", d.Sections)
	}
	if len(d.Sections[2].Body) != 0 {
		t.Fatalf("empty section body = % x", d.Sections[2].Body)
	}
	// The invariant the store's dedupe rests on: byte-exact reassembly.
	if !bytes.Equal(d.Join(), doc) {
		t.Fatal("Join(Split(doc)) != doc")
	}

	// Split is version-agnostic (storage must outlive format bumps) …
	future := append([]byte(nil), doc...)
	future[4], future[5] = 0xFF, 0xFF
	fd, err := Split(future)
	if err != nil {
		t.Fatalf("Split rejected a future version: %v", err)
	}
	if !bytes.Equal(fd.Join(), future) {
		t.Fatal("future-version round trip drifted")
	}
	// … but still rejects broken framing.
	if _, err := Split([]byte("junk")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Split(doc[:len(doc)-2]); err == nil {
		t.Error("truncated section accepted")
	}
}

// TestU16sBulk pins the bulk word-array codec to the per-word format: for
// every length around the four-word grouping (and the storage image's
// million words) the encoding equals a U16 per value byte for byte,
// decoding round-trips, and a section one byte short fails cleanly.
func TestU16sBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 1 << 20} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			words := make([]uint16, n)
			for i := range words {
				words[i] = uint16(rng.Uint32())
			}
			pre, post := uint8(0xA5), uint8(0x5A)
			bulk := Encode(0)
			bulk.Section("WRDS")
			bulk.U8(&pre) // an odd offset: the run need not start aligned
			bulk.U16s(words)
			bulk.U8(&post)
			doc := bulk.Bytes()

			ref := Encode(0)
			ref.Section("WRDS")
			ref.U8(&pre)
			for i := range words {
				ref.U16(&words[i])
			}
			ref.U8(&post)
			if !bytes.Equal(doc, ref.Bytes()) {
				t.Fatal("bulk encoding differs from per-word U16 encoding")
			}

			d, err := Decode(doc)
			if err != nil {
				t.Fatal(err)
			}
			d.Section("WRDS")
			got := make([]uint16, n)
			var b uint8
			if d.U8(&b); b != 0xA5 {
				t.Fatal("prefix byte lost")
			}
			d.U16s(got)
			if d.U8(&b); b != 0x5A {
				t.Fatal("suffix byte lost")
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			for i := range words {
				if got[i] != words[i] {
					t.Fatalf("word %d = %#04x, want %#04x", i, got[i], words[i])
				}
			}

			if n == 0 {
				return
			}
			short := Encode(0) // the same run, one byte short
			short.Section("WRDS")
			short.U16s(words[:n-1])
			last := uint8(words[n-1])
			short.U8(&last)
			d, err = Decode(short.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if d.Section("WRDS"); d.Err() != nil {
				t.Fatal(d.Err())
			}
			d.U16s(got)
			if d.Err() == nil {
				t.Fatal("short word run not detected")
			}
			if d.U8(&b); d.Err() == nil {
				t.Fatal("short-read error is not sticky")
			}
			if err := d.Finish(); err == nil {
				t.Fatal("Finish accepted a short word run")
			}
		})
	}
}

// TestU64sAndSame pins the two held-run primitives to the per-value
// format: a U64s run encodes as a U64 per value and decodes to the same
// bytes, storing nothing; Same appends a run, reads it only where the
// document holds it, and on a different or short run reads nothing and
// records no error; a short U64s run fails cleanly.
func TestU64sAndSame(t *testing.T) {
	vals := []uint64{1, 1 << 33, 0xDEADBEEF, 0}
	var run []byte
	for _, v := range vals {
		run = binary.LittleEndian.AppendUint64(run, v)
	}
	held := []byte("rows")
	pre := uint8(0xA5)
	e := Encode(0)
	e.Section("RUNS")
	e.U8(&pre)
	e.U64s(run)
	if !e.Same(held) {
		t.Fatal("encoding Same reported false")
	}
	doc := e.Bytes()

	ref := Encode(0)
	ref.Section("RUNS")
	ref.U8(&pre)
	for i := range vals {
		ref.U64(&vals[i])
	}
	ref.data = append(ref.data, held...)
	if !bytes.Equal(doc, ref.Bytes()) {
		t.Fatal("U64s and Same differ from a U64 per value and the held bytes")
	}

	d, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	d.Section("RUNS")
	var b uint8
	d.U8(&b)
	if got := d.U64s(make([]byte, len(run))); !bytes.Equal(got, run) {
		t.Fatalf("U64s decoded %x, want %x", got, run)
	}
	for _, other := range [][]byte{[]byte("rowz"), []byte("rows and more")} {
		if d.Same(other) || d.Err() != nil {
			t.Fatalf("Same(%q) matched %q or failed: %v", other, held, d.Err())
		}
	}
	if !d.Same(held) {
		t.Fatal("Same missed the held run")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	d, _ = Decode(doc)
	d.Section("RUNS")
	d.U8(&b)
	if d.U64s(make([]byte, len(run)+len(held)+1)) != nil || d.Err() == nil {
		t.Fatal("a short U64s run was not refused")
	}
	if d.Same(nil) {
		t.Fatal("Same matched after an error")
	}
}

// pagesDoc is a version-2 document whose one section, PAGE, has the given
// body.
func pagesDoc(body []byte) []byte {
	return Doc{Header: []byte{'D', 'S', 'N', 'P', Version, 0}, Sections: []RawSection{{"PAGE", body}}}.Join()
}

// page is the size of the pages Pages codes a run in.
const page = len(testZero)

// testZero is the page of zero words the tests' tables share. Nothing
// may write it; TestMain checks that nothing did.
var testZero [256]uint16

// TestMain runs the suite, then fails it if a decode wrote the shared
// zero page.
func TestMain(m *testing.M) {
	code := m.Run()
	if !isZero(testZero[:]) {
		fmt.Fprintln(os.Stderr, "state: a decode wrote the shared zero page")
		code = 1
	}
	os.Exit(code)
}

// table returns a table holding the run vs, every page with words of its
// own.
func table(vs []uint16) []*[page]uint16 {
	t := make([]*[page]uint16, (len(vs)+page-1)/page)
	for i := range t {
		t[i] = new([page]uint16)
		copy(t[i][:], vs[i*page:])
	}
	return t
}

// flat returns the run of words words that t holds.
func flat(t []*[page]uint16, words int) []uint16 {
	vs := make([]uint16, 0, words)
	for i, p := range t {
		vs = append(vs, p[:min(page, words-i*page)]...)
	}
	return vs
}

// encodeTable returns the PAGE section body Pages encodes the run of words
// words that t holds as.
func encodeTable(t []*[page]uint16, words int) []byte {
	e := Encode(0)
	e.Section("PAGE")
	e.Pages(t, words, &testZero)
	d, _ := Split(e.Bytes())
	return d.Sections[0].Body
}

// encodePages returns the PAGE section body Pages encodes vs as.
func encodePages(vs []uint16) []byte { return encodeTable(table(vs), len(vs)) }

// decodeTable decodes body into t, holding a run of words words, and
// returns the error, if any.
func decodeTable(body []byte, t []*[page]uint16, words int) error {
	d, err := Decode(pagesDoc(body))
	if err != nil {
		return err
	}
	d.Section("PAGE")
	d.Pages(t, words, &testZero)
	return d.Finish()
}

// decodeInto decodes the open section's pages into vs through a table
// holding vs.
func decodeInto(d *Codec, vs []uint16) {
	t := table(vs)
	d.Pages(t, len(vs), &testZero)
	copy(vs, flat(t, len(vs)))
}

// decodePagesInto decodes body into vs and returns the error, if any.
func decodePagesInto(body []byte, vs []uint16) error {
	d, err := Decode(pagesDoc(body))
	if err != nil {
		return err
	}
	d.Section("PAGE")
	decodeInto(d, vs)
	return d.Finish()
}

// TestPagesRoundTrip: random sparse runs, with and without a short last
// page, encode to a count and their nonzero pages only, and decode back,
// even into a run whose every word was dirty.
func TestPagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, words := range []int{0, 1, page, 2*page + 6, 1000, 16 * page, 16*page + 17} {
		for range 20 {
			vs := make([]uint16, words)
			nonzero := 0
			for p := 0; p < words; p += page {
				if rng.Intn(3) != 0 {
					continue
				}
				nonzero++
				// One random word, sometimes the page's last one.
				i := p + rng.Intn(min(page, words-p))
				if rng.Intn(2) == 0 {
					i = min(p+page, words) - 1
				}
				vs[i] = uint16(rng.Intn(0xFFFF)) + 1
			}
			body := encodePages(vs)
			want := 4
			for p := 0; p < words; p += page {
				if slices.ContainsFunc(vs[p:min(p+page, words)], func(v uint16) bool { return v != 0 }) {
					want += 4 + 2*min(page, words-p)
				}
			}
			if len(body) != want || int(binary.LittleEndian.Uint32(body)) != nonzero {
				t.Fatalf("%d words: %d-byte body counting %d pages, want %d bytes and %d pages",
					words, len(body), binary.LittleEndian.Uint32(body), want, nonzero)
			}
			got := make([]uint16, words)
			for i := range got {
				got[i] = 0xDEAD
			}
			if err := decodePagesInto(body, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, vs) {
				t.Fatalf("%d words: the run did not round-trip", words)
			}
		}
	}
}

// TestPagesRefusals: a count the section cannot hold, a page past the
// run, a page not above the one before it and a listed page that is all
// zero are each refused, and a refused decode stores nothing.
func TestPagesRefusals(t *testing.T) {
	const words = 2*page + 8 // pages 0, 1 and a short page 2 of 8 words
	le := binary.LittleEndian
	// pages builds a body from (index, fill word, length) triples, with
	// the given count.
	pages := func(count uint32, ps ...[3]int) []byte {
		b := le.AppendUint32(nil, count)
		for _, p := range ps {
			b = le.AppendUint32(b, uint32(p[0]))
			for range p[2] {
				b = le.AppendUint16(b, uint16(p[1]))
			}
		}
		return b
	}
	if err := decodePagesInto(pages(2, [3]int{0, 7, page}, [3]int{2, 9, 8}), make([]uint16, words)); err != nil {
		t.Fatalf("a well-formed body was refused: %v", err)
	}
	for _, c := range []struct {
		name string
		body []byte
		late bool // found by Finish, after the run is stored
	}{
		{"count 2^31", pages(1<<31, [3]int{0, 7, page}), false},
		{"count past the section", pages(3, [3]int{0, 7, page}, [3]int{1, 7, page}), false},
		{"page past the run", pages(1, [3]int{3, 7, page}), false},
		{"page 2^32-1", pages(1, [3]int{1<<32 - 1, 7, page}), false},
		{"page repeated", pages(2, [3]int{1, 7, page}, [3]int{1, 7, page}), false},
		{"pages out of order", pages(2, [3]int{1, 7, page}, [3]int{0, 7, page}), false},
		{"listed page all zero", pages(2, [3]int{0, 7, page}, [3]int{1, 0, page}), false},
		{"short page", pages(1, [3]int{1, 7, page - 1}), false},
		{"long last page", pages(1, [3]int{2, 7, 16}), true},
		{"no pages but trailing bytes", pages(0, [3]int{0, 7, 1}), true},
	} {
		vs := make([]uint16, words)
		for i := range vs {
			vs[i] = 0xBEEF
		}
		if err := decodePagesInto(c.body, vs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if !c.late && slices.ContainsFunc(vs, func(v uint16) bool { return v != 0xBEEF }) {
			t.Errorf("%s: the refused decode stored words", c.name)
		}
	}
}

// TestPagesVersionOne: in a version-1 document Pages reads the run
// densely, as U16s wrote it, and Encode writes version 2.
func TestPagesVersionOne(t *testing.T) {
	vs := []uint16{0, 0, 5, 0, 0, 0, 0, 9, 0}
	e := Encode(0)
	e.Section("PAGE")
	e.U16s(vs)
	doc := e.Bytes()
	if v := binary.LittleEndian.Uint16(doc[4:]); v != 2 {
		t.Fatalf("Encode wrote version %d", v)
	}
	doc[4] = 1
	d, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint16, len(vs))
	d.Section("PAGE")
	if decodeInto(d, got); d.Finish() != nil || !slices.Equal(got, vs) {
		t.Fatalf("version-1 Pages decoded %v (%v)", got, d.Finish())
	}
}

// TestPagesVersionOneOntoTable: a dense version-1 run decodes into a
// table as a version-2 one does: pages with a nonzero word are filled,
// given words of their own where they read zero, and other pages with
// words of their own are cleared, while those reading zero stay so.
func TestPagesVersionOneOntoTable(t *testing.T) {
	const words = 3*page + 40
	vs := make([]uint16, words)
	vs[page+3], vs[words-1] = 5, 9
	e := Encode(0)
	e.Section("PAGE")
	e.U16s(vs)
	doc := e.Bytes()
	doc[4] = 1
	d, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab := []*[page]uint16{{0: 1}, &testZero, &testZero, {39: 2}}
	first := tab[0]
	d.Section("PAGE")
	if d.Pages(tab, words, &testZero); d.Finish() != nil || !slices.Equal(flat(tab, words), vs) {
		t.Fatalf("version-1 Pages decoded %v (%v)", flat(tab, words), d.Finish())
	}
	if tab[0] != first || tab[2] != &testZero || tab[1] == &testZero {
		t.Fatal("a page was given words it did not need, or kept the zero page for a nonzero one")
	}
}

// FuzzPages decodes arbitrary section bytes as a pages run onto a table
// in which the pages owned selects hold words of their own, all nonzero,
// and the others read the shared zero page. Decoding never panics. An
// accepted body re-encodes to exactly its bytes, so every listed page
// holds its words and every other page reads zero, and no page that read
// the zero page was given words it does not need.
func FuzzPages(f *testing.F) {
	const words = page + 44 // a full page and a short one of 44 words
	run := make([]uint16, words)
	run[5], run[words-1] = 1, 7
	f.Add(uint8(0), encodePages(run))
	f.Add(uint8(0b10), encodePages(run))
	f.Add(uint8(0b11), encodePages(make([]uint16, words)))
	f.Add(uint8(1), []byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, owned uint8, body []byte) {
		tab := []*[page]uint16{&testZero, &testZero}
		for i := range tab {
			if owned>>i&1 != 0 {
				tab[i] = new([page]uint16)
				for j := range tab[i] {
					tab[i][j] = 0xBEEF
				}
			}
		}
		if decodeTable(body, tab, words) != nil {
			return
		}
		for i, p := range tab {
			if owned>>i&1 == 0 && p != &testZero && isZero(p[:]) {
				t.Fatalf("owning %02b, page %d was given words and holds none", owned, i)
			}
		}
		if again := encodeTable(tab, words); !bytes.Equal(again, body) {
			t.Fatalf("onto a table owning %02b, accepted body % x re-encodes as % x", owned, body, again)
		}
	})
}

package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.Section("AAAA")
	e.U8(0x12)
	e.U16(0x3456)
	e.U32(0x789ABCDE)
	e.U64(0x1122334455667788)
	e.I8(-3)
	e.Bool(true)
	e.Bool(false)
	e.Section("BBBB")
	e.U16s([]uint16{1, 2, 3})
	e.Bytes32([]byte("hello"))
	e.String("world")
	doc := e.Bytes()

	d, err := NewDecoder(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Section("AAAA"); err != nil {
		t.Fatal(err)
	}
	if v := d.U8(); v != 0x12 {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U16(); v != 0x3456 {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0x789ABCDE {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x1122334455667788 {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.I8(); v != -3 {
		t.Errorf("I8 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round trip failed")
	}
	if err := d.Section("BBBB"); err != nil {
		t.Fatal(err)
	}
	var three [3]uint16
	d.U16s(three[:])
	if three != [3]uint16{1, 2, 3} {
		t.Errorf("U16s = %v", three)
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Bytes32 = %q", got)
	}
	if got := d.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		e := NewEncoder(0)
		e.Section("TTTT")
		e.U64(42)
		return e.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical encodes differ")
	}
}

func TestStrictness(t *testing.T) {
	e := NewEncoder(0)
	e.Section("AAAA")
	e.U32(7)
	e.Section("ZZZZ")
	e.U8(1)
	doc := e.Bytes()

	// Missing section.
	d, _ := NewDecoder(doc)
	if err := d.Section("NOPE"); err == nil {
		t.Error("opening a missing section succeeded")
	}

	// Partially consumed section.
	d, _ = NewDecoder(doc)
	if err := d.Section("AAAA"); err != nil {
		t.Fatal(err)
	}
	d.U8()
	if err := d.Section("ZZZZ"); err == nil {
		t.Error("opening the next section with unread bytes succeeded")
	}

	// Unopened section caught by Finish.
	d, _ = NewDecoder(doc)
	if err := d.Section("AAAA"); err != nil {
		t.Fatal(err)
	}
	d.U32()
	if err := d.Finish(); err == nil {
		t.Error("Finish accepted a document with an unopened section")
	}

	// Over-read inside a section.
	d, _ = NewDecoder(doc)
	if err := d.Section("AAAA"); err != nil {
		t.Fatal(err)
	}
	d.U64()
	if d.Err() == nil {
		t.Error("short read not detected")
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := NewDecoder([]byte("junk")); err == nil {
		t.Error("bad magic accepted")
	}
	doc := NewEncoder(0).Bytes()
	doc[4] = 0xFF // corrupt version
	doc[5] = 0xFF
	if _, err := NewDecoder(doc); err == nil {
		t.Error("future version accepted")
	}
	// Truncated section framing.
	e := NewEncoder(0)
	e.Section("AAAA")
	e.U64(1)
	doc = e.Bytes()
	if _, err := NewDecoder(doc[:len(doc)-2]); err == nil {
		t.Error("truncated section accepted")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.Section("AAAA")
	e.U32(0xDEADBEEF)
	e.Section("BBBB")
	e.String("payload")
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
			bulk := NewEncoder(0)
			bulk.Section("WRDS")
			bulk.U8(0xA5) // an odd offset: the run need not start aligned
			bulk.U16s(words)
			bulk.U8(0x5A)
			doc := bulk.Bytes()

			ref := NewEncoder(0)
			ref.Section("WRDS")
			ref.U8(0xA5)
			for _, w := range words {
				ref.U16(w)
			}
			ref.U8(0x5A)
			if !bytes.Equal(doc, ref.Bytes()) {
				t.Fatal("bulk encoding differs from per-word U16 encoding")
			}

			d, err := NewDecoder(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Section("WRDS"); err != nil {
				t.Fatal(err)
			}
			got := make([]uint16, n)
			if d.U8() != 0xA5 {
				t.Fatal("prefix byte lost")
			}
			d.U16s(got)
			if d.U8() != 0x5A {
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
			short := NewEncoder(0) // the same run, one byte short
			short.Section("WRDS")
			short.U16s(words[:n-1])
			short.U8(uint8(words[n-1]))
			d, err = NewDecoder(short.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Section("WRDS"); err != nil {
				t.Fatal(err)
			}
			d.U16s(got)
			if d.Err() == nil {
				t.Fatal("short word run not detected")
			}
			if d.U8(); d.Err() == nil {
				t.Fatal("short-read error is not sticky")
			}
			if err := d.Finish(); err == nil {
				t.Fatal("Finish accepted a short word run")
			}
		})
	}
}

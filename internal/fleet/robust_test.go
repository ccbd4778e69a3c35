package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"testing"
	"time"

	"dorado/internal/microcode"
	"dorado/internal/state"
)

// sameWordFlush starts a fetch in the word whose FF flushes the dirty line
// the fetch hits: the Hold phase admits the hit, and the flush then drops
// the line, so the fetch refills it behind the writeback.
const sameWordFlush = `
start:  const=0x0040 alu=b lc=rm r=1
        a=store r=1 b=t
        a=fetch r=1 ff=flush
        halt
`

// TestSameWordFlushProgram loads a program whose fetch shares its word
// with a flush of the line it hits, runs it to halt, and then uses the
// manager again: the reference the Hold phase admitted is the one issued,
// so the worker survives.
func TestSameWordFlushProgram(t *testing.T) {
	m := New(Config{Workers: 1})
	t.Cleanup(func() { drainNow(t, m) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, prog := range []string{sameWordFlush, SpinMicrocode} {
		id, err := m.Create(Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadMicrocode(ctx, id, prog, "start"); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run(ctx, id, 200)
		if err != nil {
			t.Fatal(err)
		}
		if halts := prog == sameWordFlush; r.Halted != halts {
			t.Fatalf("run: %+v, want halted %v", r, halts)
		}
	}
}

// TestServerRejectsImpossibleSnapshots PUTs snapshots crafted to hold
// what no machine can (a current task of 200, a reserved FF in the
// microstore): each is a 400, and the manager keeps serving, both the
// session it was aimed at and a new one.
func TestServerRejectsImpossibleSnapshots(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, "")
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": SpinMicrocode, "start": "start"}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	if code := runHTTP(t, ts.URL, id, 100, nil); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// CTRL holds the cycle (8 bytes), the halt flag and PC (3) and the
	// owed stalls (8), then the current task; UIMS is the microstore, one
	// encoded word per 8 bytes from address 0.
	for _, c := range []struct {
		tag   string
		patch func(b []byte)
	}{
		{"CTRL", func(b []byte) { b[19] = 200 }},
		{"UIMS", func(b []byte) { binary.LittleEndian.PutUint64(b, microcode.Word{FF: 0xC0}.Encode()) }},
	} {
		doc, err := state.Split(bytes.Clone(snap))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range doc.Sections {
			if s.Tag == c.tag {
				c.patch(s.Body)
			}
		}
		if code := call(t, "PUT", ts.URL+"/v1/sessions/"+id+"/snapshot", doc.Join(), nil); code != http.StatusBadRequest {
			t.Fatalf("%s: crafted restore: status %d, want 400", c.tag, code)
		}
		if code := runHTTP(t, ts.URL, id, 100, nil); code != http.StatusAccepted {
			t.Fatalf("%s: run after a refused restore: status %d", c.tag, code)
		}
	}
	other := createSession(t, ts.URL, "mesa")
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+other+"/boot",
		map[string]string{"source": "return 6*7;"}, nil); code != http.StatusOK {
		t.Fatalf("boot: status %d", code)
	}
	if code := runHTTP(t, ts.URL, other, 100_000, nil); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
	var st State
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+other, nil, &st); code != http.StatusOK || len(st.Stack) != 1 || st.Stack[0] != 42 {
		t.Fatalf("other session: status %d, %+v", code, st)
	}
}

// patchSnapshot returns a copy of snap with the named section's body
// passed through patch.
func patchSnapshot(t *testing.T, snap []byte, tag string, patch func(b []byte)) []byte {
	t.Helper()
	doc, err := state.Split(bytes.Clone(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range doc.Sections {
		if s.Tag == tag {
			patch(s.Body)
			return doc.Join()
		}
	}
	t.Fatalf("no section %q", tag)
	return nil
}

// TestServerRefusedRestoreKeepsSession: a PUT .../snapshot that is refused
// leaves the session exactly as it was. The session runs to cycle 5,000,
// then gets its own cycle-100 snapshot back with microstore word 00.9
// holding a reserved FF, or with a page-map count of 2^20 over no
// entries: each is a 400, the session's snapshot is byte-equal to the one
// taken just before, and it still runs.
func TestServerRefusedRestoreKeepsSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, "")
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": SpinMicrocode, "start": "start"}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	snapURL := ts.URL + "/v1/sessions/" + id + "/snapshot"
	if code := runHTTP(t, ts.URL, id, 100, nil); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
	early := getBytes(t, snapURL)
	// MEMS ends with the page map: its count follows the storage pipe's
	// release, the base registers, the MD state, the fault latch and the
	// counters, and the session's map is empty.
	const pageCount = 8 + 32*4 + 16*19 + 6 + 7*8
	for _, c := range []struct {
		name string
		bad  []byte
	}{
		{"reserved FF at 00.9", patchSnapshot(t, early, "UIMS", func(b []byte) {
			binary.LittleEndian.PutUint64(b[8*9:], microcode.Word{FF: 0xC0}.Encode())
		})},
		{"page map count 2^20", patchSnapshot(t, early, "MEMS", func(b []byte) {
			if len(b) != pageCount+4 {
				t.Fatalf("MEMS is %d bytes, want %d (an empty page map)", len(b), pageCount+4)
			}
			binary.LittleEndian.PutUint32(b[pageCount:], 1<<20)
		})},
	} {
		var st State
		if code := runHTTP(t, ts.URL, id, 4900, nil); code != http.StatusAccepted {
			t.Fatalf("%s: run: status %d", c.name, code)
		}
		before := getBytes(t, snapURL)
		if code := call(t, "PUT", snapURL, c.bad, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: crafted restore: status %d, want 400", c.name, code)
		}
		if after := getBytes(t, snapURL); !bytes.Equal(after, before) {
			t.Fatalf("%s: the refused restore changed the session", c.name)
		}
		if code := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &st); code != http.StatusOK || st.Cycle < 5000 {
			t.Fatalf("%s: state: status %d, %+v", c.name, code, st)
		}
		if code := runHTTP(t, ts.URL, id, 100, nil); code != http.StatusAccepted {
			t.Fatalf("%s: run after a refused restore: status %d", c.name, code)
		}
	}
	// An accepted PUT installs the snapshot's machine, and the listing's
	// published view reads it.
	if code := call(t, "PUT", snapURL, early, nil); code != http.StatusOK {
		t.Fatalf("restore: status %d", code)
	}
	var list struct{ Sessions []Info }
	if code := call(t, "GET", ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK || len(list.Sessions) != 1 || list.Sessions[0].Cycle != 100 {
		t.Fatalf("listing after restore: status %d, %+v", code, list.Sessions)
	}
	if !bytes.Equal(getBytes(t, snapURL), early) {
		t.Fatal("the restored session's snapshot differs from the one it restored")
	}
}

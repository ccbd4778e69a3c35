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

package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"dorado/internal/obs/prof"
)

// createProfiledSession creates a bare microcode session with the profiler
// (and, when translated is set, the superblock translator) attached.
func createProfiledSession(t *testing.T, base string, translated bool) string {
	t.Helper()
	var res struct {
		ID string `json:"id"`
	}
	body := map[string]any{"profile": true, "translation": translated}
	if code := call(t, "POST", base+"/v1/sessions", body, &res); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return res.ID
}

// fetchRaw does a GET and returns status, Content-Type, and the raw body.
func fetchRaw(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

func TestServerProfileEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Unknown session: 404 regardless of format.
	if code := call(t, "GET", ts.URL+"/v1/sessions/nope/profile", nil, nil); code != http.StatusNotFound {
		t.Fatalf("profile of unknown session: status %d", code)
	}

	// A session created without Spec.Profile: 409 no_profiler.
	plain := createSession(t, ts.URL, "")
	var env ErrorEnvelope
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+plain+"/profile?format=json", nil, &env); code != http.StatusConflict {
		t.Fatalf("profile of uninstrumented session: status %d", code)
	}
	if env.Code != "no_profiler" {
		t.Fatalf("envelope code = %q, want no_profiler", env.Code)
	}

	// A profiled, translated session running real microcode.
	id := createProfiledSession(t, ts.URL, true)
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": SpinMicrocode, "start": "start"}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	if code := runHTTP(t, ts.URL, id, 5000, nil); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}

	// JSON form: symbolized addresses and the translator's counters.
	var res ProfileResult
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/profile?format=json", nil, &res); code != http.StatusOK {
		t.Fatalf("profile json: status %d", code)
	}
	if res.ID != id || res.Profile == nil || len(res.Profile.Addrs) == 0 {
		t.Fatalf("profile json = %+v", res)
	}
	var total uint64
	symbolized := false
	for _, a := range res.Profile.Addrs {
		total += a.Cycles
		if a.Name != a.Addr.String() { // unsymbolized names fall back to "page.word"
			symbolized = true
		}
	}
	if total == 0 || !symbolized {
		t.Fatalf("profile addrs: total cycles %d, symbolized %v", total, symbolized)
	}
	if res.Translation.BlocksBuilt == 0 || len(res.Profile.Blocks) == 0 {
		t.Fatalf("translated session built no superblocks: %+v", res.Translation)
	}

	// Default form: gzipped pprof protobuf that decompresses to something.
	code, ctype, body := fetchRaw(t, ts.URL+"/v1/sessions/"+id+"/profile")
	if code != http.StatusOK || ctype != "application/octet-stream" {
		t.Fatalf("profile pprof: status %d, content-type %q", code, ctype)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("profile body is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("decompressing pprof: %d bytes, %v", len(raw), err)
	}

	// Unknown format: 400.
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/profile?format=bogus", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d", code)
	}
}

func TestServerProfileRevivesParked(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createProfiledSession(t, ts.URL, false)
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode",
		map[string]string{"text": SpinMicrocode, "start": "start"}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}
	if code := runHTTP(t, ts.URL, id, 1000, nil); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/park", nil, nil); code != http.StatusOK {
		t.Fatalf("park: status %d", code)
	}

	// Reading the profile revives the session. The profiler is rebuilt
	// fresh at revival, so the counters restart — but the microstore (and
	// with it the stashed symbol table) survives the round trip.
	var res ProfileResult
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/profile?format=json", nil, &res); code != http.StatusOK {
		t.Fatalf("profile after park: status %d", code)
	}
	if !res.Revived {
		t.Fatal("profile read did not report revival")
	}
	if code := runHTTP(t, ts.URL, id, 1000, nil); code != http.StatusAccepted {
		t.Fatalf("run after revival: status %d", code)
	}
	var res2 ProfileResult
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/profile?format=json", nil, &res2); code != http.StatusOK {
		t.Fatalf("profile after revival: status %d", code)
	}
	if res2.Revived || len(res2.Profile.Addrs) == 0 {
		t.Fatalf("post-revival profile = revived %v, %d addrs", res2.Revived, len(res2.Profile.Addrs))
	}
	for _, a := range res2.Profile.Addrs {
		if a.Name != a.Addr.String() {
			return // symbol table survived the park/revive round trip
		}
	}
	t.Fatal("post-revival profile lost its symbols")
}

func TestServerFleetProfileMergedDeterministic(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 4})

	// Two profiled sessions and one uninstrumented bystander.
	a := createProfiledSession(t, ts.URL, false)
	b := createProfiledSession(t, ts.URL, true)
	plain := createSession(t, ts.URL, "")
	ctx := context.Background()
	for _, id := range []string{a, b} {
		if _, err := m.LoadMicrocode(ctx, id, SpinMicrocode, "start"); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer both sessions from concurrent clients while scraping the
	// merged profile — the race detector checks the read path against
	// running machines.
	var wg sync.WaitGroup
	for _, id := range []string{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if _, err := m.Run(ctx, id, 500); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 10 {
			if code, _, _ := fetchRaw(t, ts.URL+"/v1/profile"); code != http.StatusOK {
				t.Errorf("fleet profile during runs: status %d", code)
				return
			}
		}
	}()
	wg.Wait()

	// Quiesced, the merged view is deterministic: same sessions in
	// creation order, byte-identical on repeat, bystander excluded.
	var res FleetProfileResult
	if code := call(t, "GET", ts.URL+"/v1/profile?format=json", nil, &res); code != http.StatusOK {
		t.Fatalf("fleet profile: status %d", code)
	}
	if len(res.Sessions) != 2 || res.Sessions[0] != a || res.Sessions[1] != b {
		t.Fatalf("fleet profile sessions = %v, want [%s %s] (not %s)", res.Sessions, a, b, plain)
	}
	code1, _, body1 := fetchRaw(t, ts.URL+"/v1/profile?format=json")
	code2, _, body2 := fetchRaw(t, ts.URL+"/v1/profile?format=json")
	if code1 != http.StatusOK || code2 != http.StatusOK || !bytes.Equal(body1, body2) {
		t.Fatalf("merged profile not deterministic (%d, %d)", code1, code2)
	}

	// The merged totals equal the per-session sums.
	var pa, pb ProfileResult
	call(t, "GET", ts.URL+"/v1/sessions/"+a+"/profile?format=json", nil, &pa)
	call(t, "GET", ts.URL+"/v1/sessions/"+b+"/profile?format=json", nil, &pb)
	sum := func(p *prof.Profile) uint64 {
		var n uint64
		for _, ad := range p.Addrs {
			n += ad.Cycles
		}
		return n
	}
	if got, want := sum(res.Profile), sum(pa.Profile)+sum(pb.Profile); got != want {
		t.Fatalf("merged cycles = %d, want %d", got, want)
	}
}

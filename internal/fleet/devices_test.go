package fleet

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// diskMicrocode is the §7 disk service idiom from examples/microcode:
// task 0 spins, the disk task moves two words in three microinstructions.
const diskMicrocode = `
emu:    alu=a+1 a=rm r=0 lc=rm goto emu
disk:   ff=input alu=b lc=t
        a=store r=1 b=t alu=a+1 lc=rm
        a=store r=1 ff=input alu=a+1 lc=rm block goto disk
`

// TestDeviceSessionLifecycle drives a disk-backed session through the full
// HTTP lifecycle: create with a DeviceSpec, load microcode that wires the
// device task via its Start label, run, snapshot, diverge, restore, and
// confirm the snapshot — which embeds the device FIFO — brought the whole
// machine back.
func TestDeviceSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var created struct {
		ID string `json:"id"`
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"devices": []map[string]any{{"name": "disk", "start": "disk"}},
	}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	id := created.ID

	if code := call(t, "POST", ts.URL+"/v1/sessions/"+id+"/microcode", map[string]any{
		"text": diskMicrocode, "start": "emu",
	}, nil); code != http.StatusOK {
		t.Fatalf("microcode: status %d", code)
	}

	var run struct {
		Cycle uint64 `json:"cycle"`
	}
	if code := runHTTP(t, ts.URL, id, 5000, &run); code != http.StatusAccepted {
		t.Fatalf("run: status %d", code)
	}
	if run.Cycle != 5000 {
		t.Fatalf("cycle = %d after run, want 5000", run.Cycle)
	}

	snap := getBytes(t, ts.URL+"/v1/sessions/"+id+"/snapshot")
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	// Diverge, restore, and check the machine state came back exactly: a
	// re-taken snapshot must be byte-identical, which covers the device
	// section too (the disk FIFO, timers, and counters are in there).
	if code := runHTTP(t, ts.URL, id, 3000, nil); code != http.StatusAccepted {
		t.Fatal("diverging run failed")
	}
	req, err := http.NewRequest("PUT", ts.URL+"/v1/sessions/"+id+"/snapshot", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp.StatusCode)
	}
	if again := getBytes(t, ts.URL+"/v1/sessions/"+id+"/snapshot"); !bytes.Equal(snap, again) {
		t.Error("snapshot after restore differs from the restored snapshot")
	}

	var st State
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &st); code != http.StatusOK {
		t.Fatal("read state failed")
	}
	if st.Cycle != 5000 {
		t.Errorf("cycle = %d after restore, want 5000", st.Cycle)
	}

	// The listing reports the mounted device.
	var list struct {
		Sessions []Info `json:"sessions"`
	}
	call(t, "GET", ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || len(list.Sessions[0].Devices) != 1 || list.Sessions[0].Devices[0] != "disk" {
		t.Errorf("listing devices = %+v, want [disk]", list.Sessions)
	}
}

// TestDeviceSessionsDeterministic: two sessions with identical device Specs
// and microcode, run the same number of cycles, must snapshot
// byte-identically — device simulation in the fleet is deterministic.
func TestDeviceSessionsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	snaps := make([][]byte, 2)
	for i := range snaps {
		var created struct {
			ID string `json:"id"`
		}
		call(t, "POST", ts.URL+"/v1/sessions", map[string]any{
			"devices": []map[string]any{
				{"name": "disk", "start": "disk"},
				{"name": "loopback", "task": 8},
			},
		}, &created)
		if created.ID == "" {
			t.Fatal("create failed")
		}
		if code := call(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/microcode", map[string]any{
			"text": diskMicrocode, "start": "emu",
		}, nil); code != http.StatusOK {
			t.Fatalf("microcode: status %d", code)
		}
		runHTTP(t, ts.URL, created.ID, 4000, nil)
		snaps[i] = getBytes(t, ts.URL+"/v1/sessions/"+created.ID+"/snapshot")
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("identical device sessions took different snapshots")
	}
}

// TestDeviceSpecValidation: unknown device names, bad tasks, and duplicate
// task claims must all be 400s at creation time, before a session exists.
func TestDeviceSpecValidation(t *testing.T) {
	mgr, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name    string
		devices []map[string]any
	}{
		{"unknown name", []map[string]any{{"name": "teleporter"}}},
		{"empty name", []map[string]any{{"name": ""}}},
		{"task out of range", []map[string]any{{"name": "disk", "task": 16}}},
		{"duplicate task", []map[string]any{{"name": "disk"}, {"name": "ethernet", "task": 11}}},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		code := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{"devices": tc.devices}, &e)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (error %q)", tc.name, code, e.Error)
		}
	}
	if got := len(mgr.Sessions()); got != 0 {
		t.Errorf("%d sessions created by rejected requests, want 0", got)
	}
}

// TestDeviceSessionParkRevive: a parked disk-backed session must revive
// with its devices reattached and its snapshot (device FIFO included)
// restored, transparently, on the next operation.
func TestDeviceSessionParkRevive(t *testing.T) {
	clock := struct {
		sync.Mutex
		t time.Time
	}{t: time.Unix(1000, 0)}
	now := func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return clock.t
	}
	mgr := New(Config{Workers: 1, IdleAfter: time.Minute, sweepEvery: time.Hour, now: now})
	t.Cleanup(func() { drainNow(t, mgr) })

	id, err := mgr.Create(Spec{Devices: []DeviceSpec{{Name: "disk", Start: "disk"}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := tctx
	if _, err := mgr.LoadMicrocode(ctx, id, diskMicrocode, "emu"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Run(ctx, id, 4000); err != nil {
		t.Fatal(err)
	}
	before, err := mgr.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	clock.Lock()
	clock.t = clock.t.Add(2 * time.Minute)
	clock.Unlock()
	if n := mgr.Sweep(); n != 1 {
		t.Fatalf("parked %d sessions, want 1", n)
	}
	after, err := mgr.Snapshot(ctx, id) // revives
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("revived session's snapshot differs: device state lost across park/revive")
	}
}

// getBytes GETs a URL and returns the raw body.
func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

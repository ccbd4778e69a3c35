package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"dorado/internal/fleet"
	"dorado/internal/store"
)

// ExampleManager_ObsSummary creates an instrumented session, runs it, and
// reads the condensed observability summary — what GET
// /v1/sessions/{id}/obs serves.
func ExampleManager_ObsSummary() {
	m := fleet.New(fleet.Config{Workers: 1})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	id, err := m.Create(fleet.Spec{Metrics: true})
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	if _, err := m.Run(ctx, id, 10_000); err != nil {
		panic(err)
	}
	res, err := m.ObsSummary(ctx, id)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.ID, res.Cycle, res.Obs.TimelineInterval > 0)
	// Output: s1 10000 true
}

// ExampleManager_TraceJSON exports a session's Chrome trace_event
// document — what GET /v1/sessions/{id}/trace serves; load it at
// chrome://tracing or ui.perfetto.dev.
func ExampleManager_TraceJSON() {
	m := fleet.New(fleet.Config{Workers: 1})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	id, err := m.Create(fleet.Spec{Metrics: true})
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	if _, err := m.Run(ctx, id, 5_000); err != nil {
		panic(err)
	}
	data, err := m.TraceJSON(ctx, id)
	if err != nil {
		panic(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		panic(err)
	}
	fmt.Println(len(doc.TraceEvents) > 0)
	// Output: true
}

// ExampleManager_SubmitRun submits an asynchronous run and polls it to
// completion — the Manager-level mirror of POST /v1/sessions/{id}/runs
// followed by GET /v1/sessions/{id}/runs/{rid}. The submit returns at
// admission; the result becomes available when the worker finishes.
func ExampleManager_SubmitRun() {
	m := fleet.New(fleet.Config{Workers: 1})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	id, err := m.Create(fleet.Spec{})
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	v, err := m.SubmitRun(ctx, id, 1000)
	if err != nil {
		panic(err)
	}
	for v.Status != fleet.RunDone && v.Status != fleet.RunFailed {
		time.Sleep(time.Millisecond)
		if v, err = m.GetRun(id, v.ID); err != nil {
			panic(err)
		}
	}
	fmt.Println(v.ID, v.Status, v.Result.Ran)
	// Output: r1 done 1000
}

// ExampleManager_Park parks a session into a durable store and restarts
// the fleet over the same directory — what `doradod -store DIR` does
// across a process restart. A session whose run has returned is idle, so
// the park right after it succeeds.
func ExampleManager_Park() {
	dir, err := os.MkdirTemp("", "dorado-store-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	sdb, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	m := fleet.New(fleet.Config{Workers: 1, Store: sdb})

	ctx := context.Background()
	id, err := m.Create(fleet.Spec{})
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	if _, err := m.Run(ctx, id, 1000); err != nil {
		panic(err)
	}
	res, err := m.Park(id)
	if err != nil {
		panic(err)
	}
	m.Drain(ctx) //nolint:errcheck // Background never expires

	// "Restart": a fresh Manager over the same store directory adopts the
	// parked session and revives it lazily on first touch.
	sdb2, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	m2 := fleet.New(fleet.Config{Workers: 1, Store: sdb2})
	defer m2.Drain(ctx) //nolint:errcheck // Background never expires
	info := m2.Sessions()[0]
	st, err := m2.ReadState(ctx, info.ID)
	if err != nil {
		panic(err)
	}
	fmt.Println(info.Parked, info.Snapshot == res.Snapshot, st.Cycle)
	// Output: true true 1000
}

// ExampleManager_CreateFrom forks a new session from a stored snapshot
// hash — what POST /v1/sessions with {"from":"<hash>"} does. The fork
// starts at the donor's exact state and then diverges independently.
func ExampleManager_CreateFrom() {
	dir, err := os.MkdirTemp("", "dorado-store-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	sdb, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	m := fleet.New(fleet.Config{Workers: 1, Store: sdb})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	id, err := m.Create(fleet.Spec{})
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	if _, err := m.Run(ctx, id, 1000); err != nil {
		panic(err)
	}
	res, err := m.Park(id)
	if err != nil {
		panic(err)
	}

	fork, err := m.CreateFrom(res.Snapshot)
	if err != nil {
		panic(err)
	}
	if _, err := m.Run(ctx, fork, 500); err != nil {
		panic(err)
	}
	forkSt, err := m.ReadState(ctx, fork)
	if err != nil {
		panic(err)
	}
	origSt, err := m.ReadState(ctx, id)
	if err != nil {
		panic(err)
	}
	fmt.Println(origSt.Cycle, forkSt.Cycle)
	// Output: 1000 1500
}

// ExampleManager_Health reads the liveness summary — what GET /healthz
// serves: session counts by residency, counted from each session's
// published view without a session lock.
func ExampleManager_Health() {
	m := fleet.New(fleet.Config{Workers: 1})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	if _, err := m.Create(fleet.Spec{}); err != nil {
		panic(err)
	}
	if _, err := m.Create(fleet.Spec{Language: "mesa"}); err != nil {
		panic(err)
	}
	h := m.Health()
	fmt.Println(h.Status, h.Sessions.Active, h.Sessions.Parked)
	// Output: ok 2 0
}

// ExampleManager_GCStore runs the store lifecycle end to end: three parks
// of a progressing session leave three snapshots in the store, the
// manifest references only the newest, and one sweep (what POST
// /v1/store/gc does, with max_age_ms 0 here) reclaims the two superseded
// ones. StoreStats is what GET /v1/store serves.
func ExampleManager_GCStore() {
	dir, err := os.MkdirTemp("", "dorado-store-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	sdb, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	m := fleet.New(fleet.Config{Workers: 1, Store: sdb})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	id, err := m.Create(fleet.Spec{})
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Run(ctx, id, 1000); err != nil {
			panic(err)
		}
		if _, err := m.Park(id); err != nil {
			panic(err)
		}
	}

	before, err := m.StoreStats()
	if err != nil {
		panic(err)
	}
	res, err := m.GCStore(0) // 0: no age grace, reclaim all unreferenced
	if err != nil {
		panic(err)
	}
	after, err := m.StoreStats()
	if err != nil {
		panic(err)
	}
	st, err := m.ReadState(ctx, id) // the referenced snapshot still revives
	if err != nil {
		panic(err)
	}
	fmt.Println(before.Recipes, res.ReclaimedRecipes, after.Recipes, after.Bytes < before.Bytes, st.Cycle)
	// Output: 3 2 1 true 3000
}

// ExampleManager_Profile reads a profiled session's microarchitectural
// profile — what GET /v1/sessions/{id}/profile?format=json serves. The
// session carries a profiler (Spec.Profile) and the superblock translator,
// so the profile attributes every cycle to its microaddress and records
// why each superblock execution ended.
func ExampleManager_Profile() {
	m := fleet.New(fleet.Config{Workers: 1})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	spec := fleet.Spec{Profile: true}
	spec.Machine.Translation.Enable = true
	id, err := m.Create(spec)
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	if _, err := m.Run(ctx, id, 10_000); err != nil {
		panic(err)
	}
	res, err := m.Profile(ctx, id)
	if err != nil {
		panic(err)
	}
	var cycles uint64
	for _, a := range res.Profile.Addrs {
		cycles += a.Cycles
	}
	fmt.Println(res.ID, cycles, res.Translation.BlocksBuilt > 0, len(res.Profile.Blocks) > 0)
	// Output: s1 10000 true true
}

// ExampleManager_FleetProfile merges every profiled session into one
// fleet-wide profile — what GET /v1/profile serves. Sessions without a
// profiler are skipped; the merge is deterministic (creation order).
func ExampleManager_FleetProfile() {
	m := fleet.New(fleet.Config{Workers: 1})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		id, err := m.Create(fleet.Spec{Profile: true})
		if err != nil {
			panic(err)
		}
		if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
			panic(err)
		}
		if _, err := m.Run(ctx, id, 5_000); err != nil {
			panic(err)
		}
	}
	if _, err := m.Create(fleet.Spec{}); err != nil { // unprofiled bystander
		panic(err)
	}
	res, err := m.FleetProfile(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Sessions, res.Profile.Cycles)
	// Output: [s1 s2] 10000
}

// ExampleManager_webhook delivers a run completion by webhook: the
// session's Spec names a receiver URL (origin-allowlisted via
// Config.WebhookAllow / doradod -webhook-allow), and every terminal run
// view is POSTed there as JSON — push instead of polling GetRun.
func ExampleManager_webhook() {
	got := make(chan fleet.RunView, 1)
	rcv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var v fleet.RunView
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			panic(err)
		}
		got <- v
		w.WriteHeader(http.StatusNoContent)
	}))
	defer rcv.Close()

	m := fleet.New(fleet.Config{Workers: 1, WebhookAllow: []string{rcv.URL}})
	defer m.Drain(context.Background()) //nolint:errcheck // Background never expires

	ctx := context.Background()
	id, err := m.Create(fleet.Spec{Webhook: rcv.URL + "/hooks/dorado"})
	if err != nil {
		panic(err)
	}
	if _, err := m.LoadMicrocode(ctx, id, fleet.SpinMicrocode, "start"); err != nil {
		panic(err)
	}
	if _, err := m.SubmitRun(ctx, id, 2000); err != nil {
		panic(err)
	}
	v := <-got
	fmt.Println(v.Session, v.ID, v.Status, v.Result.Cycle)
	// Output: s1 r1 done 2000
}

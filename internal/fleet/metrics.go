package fleet

import (
	"sync/atomic"

	"dorado"
	"dorado/internal/obs"
)

// counters is the manager's scrape-safe bookkeeping: every field is
// atomic, updated on the operation paths and read by MetricsSnapshot
// without stopping any simulation.
type counters struct {
	ops           [numOpKinds]atomic.Uint64
	rejectedLoad  atomic.Uint64 // ErrOverloaded rejections
	rejectedDrain atomic.Uint64
	created       atomic.Uint64
	destroyed     atomic.Uint64
	evicted       atomic.Uint64
	revived       atomic.Uint64
	adopted       atomic.Uint64 // sessions restored from a store manifest at startup
	persisted     atomic.Uint64 // snapshots written durably at park
	forked        atomic.Uint64 // sessions created from a stored snapshot (CreateFrom)
	runsSubmitted atomic.Uint64 // async runs accepted (includes the sync wrapper)
	cycles        atomic.Uint64 // simulated cycles, all sessions ever

	webhookDelivered atomic.Uint64 // run webhooks acknowledged with a 2xx
	webhookRetried   atomic.Uint64 // delivery attempts that failed and were retried
	webhookDropped   atomic.Uint64 // dead-lettered deliveries (retries exhausted, origin rejected, or drain)
}

// MetricsSnapshot assembles the fleet's Prometheus families: manager-level
// counters plus one cycles/instructions sample per session, in creation
// order so identical fleets export identical text. It reads atomics, the
// op-latency histograms under their lock and each session's published
// view, never a running machine — safe to call from a scrape handler at
// any time. Its session gauge is the Health of the same table.
func (m *Manager) MetricsSnapshot() *obs.Snapshot {
	list := m.table()
	h := m.health(list)
	queued := 0
	cyc := make([]obs.Sample, 0, len(list))
	exec := make([]obs.Sample, 0, len(list))
	holds := make([]obs.Sample, 0, len(list))
	var transBlocks, transEntries, transFused, transInvalids []obs.Sample
	var profExits []obs.Sample
	for _, s := range list {
		s.mu.Lock()
		queued += len(s.pending)
		s.mu.Unlock()
		v := s.published.Load()
		label := `{session="` + s.id + `"}`
		cyc = append(cyc, obs.Sample{Label: label, Value: v.Stats.Cycles})
		exec = append(exec, obs.Sample{Label: label, Value: v.Stats.Executed})
		holds = append(holds, obs.Sample{Label: label, Value: v.Stats.Holds})
		// Translator families export only for sessions with translation
		// enabled, profiler exits only with Spec.Profile — all-zero series
		// for the rest would just bloat the scrape.
		if s.spec.Machine.Translation.Enable {
			transBlocks = append(transBlocks, obs.Sample{Label: label, Value: v.Trans.BlocksBuilt})
			transEntries = append(transEntries, obs.Sample{Label: label, Value: v.Trans.Entries})
			transFused = append(transFused, obs.Sample{Label: label, Value: v.Trans.FusedCycles})
			transInvalids = append(transInvalids, obs.Sample{Label: label, Value: v.Trans.Invalidations})
		}
		if s.spec.Profile {
			for r, n := range v.Exits {
				profExits = append(profExits, obs.Sample{
					Label: `{session="` + s.id + `",reason="` + dorado.ExitReason(r).String() + `"}`,
					Value: n,
				})
			}
		}
	}

	sn := &obs.Snapshot{}
	sn.Add("dorado_fleet_sessions", "Sessions owned by the manager, by residency.", "gauge",
		obs.Sample{Label: `{state="live"}`, Value: uint64(h.Sessions.Active)},
		obs.Sample{Label: `{state="parked"}`, Value: uint64(h.Sessions.Parked)})
	sn.Add("dorado_fleet_workers", "Worker goroutines executing session operations.", "gauge",
		obs.Sample{Value: uint64(m.cfg.Workers)})
	sn.Add("dorado_fleet_queue_depth", "Operations waiting in session queues.", "gauge",
		obs.Sample{Value: uint64(queued)})
	sn.Add("dorado_fleet_draining", "1 while the manager is draining.", "gauge",
		obs.Sample{Value: b2u(h.Draining)})

	opSamples := make([]obs.Sample, 0, int(numOpKinds))
	for k := opKind(0); k < numOpKinds; k++ {
		opSamples = append(opSamples, obs.Sample{
			Label: `{op="` + k.String() + `"}`, Value: m.counters.ops[k].Load(),
		})
	}
	sn.Add("dorado_fleet_ops_total", "Successfully completed session operations, by kind.", "counter", opSamples...)
	sn.Add("dorado_fleet_rejected_total", "Rejected operations, by reason.", "counter",
		obs.Sample{Label: `{reason="overloaded"}`, Value: m.counters.rejectedLoad.Load()},
		obs.Sample{Label: `{reason="draining"}`, Value: m.counters.rejectedDrain.Load()})
	sn.Add("dorado_fleet_sessions_created_total", "Sessions ever created.", "counter",
		obs.Sample{Value: m.counters.created.Load()})
	sn.Add("dorado_fleet_sessions_destroyed_total", "Sessions ever destroyed.", "counter",
		obs.Sample{Value: m.counters.destroyed.Load()})
	sn.Add("dorado_fleet_sessions_evicted_total", "Idle sessions parked to a snapshot.", "counter",
		obs.Sample{Value: m.counters.evicted.Load()})
	sn.Add("dorado_fleet_sessions_revived_total", "Parked sessions rebuilt on demand.", "counter",
		obs.Sample{Value: m.counters.revived.Load()})
	sn.Add("dorado_fleet_sessions_adopted_total", "Sessions adopted from the store manifest at startup.", "counter",
		obs.Sample{Value: m.counters.adopted.Load()})
	sn.Add("dorado_fleet_snapshots_persisted_total", "Snapshots written durably to the store at park.", "counter",
		obs.Sample{Value: m.counters.persisted.Load()})
	sn.Add("dorado_fleet_sessions_forked_total", "Sessions created from a stored snapshot.", "counter",
		obs.Sample{Value: m.counters.forked.Load()})
	sn.Add("dorado_fleet_runs_submitted_total", "Async runs accepted, including the sync wrapper's.", "counter",
		obs.Sample{Value: m.counters.runsSubmitted.Load()})
	sn.Add("dorado_fleet_cycles_total", "Simulated cycles across all sessions.", "counter",
		obs.Sample{Value: m.counters.cycles.Load()})
	sn.Add("dorado_fleet_webhook_delivered_total", "Run webhooks acknowledged by the receiver (2xx).", "counter",
		obs.Sample{Value: m.counters.webhookDelivered.Load()})
	sn.Add("dorado_fleet_webhook_retried_total", "Failed webhook attempts that were retried.", "counter",
		obs.Sample{Value: m.counters.webhookRetried.Load()})
	sn.Add("dorado_fleet_webhook_dropped_total", "Dead-lettered webhook deliveries (retries exhausted, origin rejected, or drain).", "counter",
		obs.Sample{Value: m.counters.webhookDropped.Load()})

	if m.cfg.Store != nil {
		st := m.cfg.Store.Stats()
		sn.Add("dorado_store_blobs", "Durable-store payload files, by kind: one recipe per snapshot, one section file per distinct section of 4 KiB or more.", "gauge",
			obs.Sample{Label: `{kind="recipe"}`, Value: uint64(st.Recipes)},
			obs.Sample{Label: `{kind="section"}`, Value: uint64(st.Sections)})
		sn.Add("dorado_store_bytes", "Durable-store payload bytes (sections + recipes).", "gauge",
			obs.Sample{Value: uint64(st.Bytes)})
		sn.Add("dorado_store_sessions", "Sessions the store manifest references.", "gauge",
			obs.Sample{Value: uint64(st.Sessions)})
		sn.Add("dorado_store_sections_deduped_total", "Section files a park did not rewrite because an identical one existed (sections under 4 KiB ride in the recipe and are not counted).", "counter",
			obs.Sample{Value: st.SectionsDeduped})
		sn.Add("dorado_store_deduped_bytes_total", "Bytes those deduplicated section files would have written.", "counter",
			obs.Sample{Value: st.DedupedBytes})
		sn.Add("dorado_store_gc_runs_total", "Completed store GC sweeps.", "counter",
			obs.Sample{Value: st.GCRuns})
		sn.Add("dorado_store_gc_reclaimed_bytes_total", "Bytes reclaimed by store GC sweeps.", "counter",
			obs.Sample{Value: st.GCReclaimedBytes})
	}

	queue, service := m.lat.snapshot()
	sn.AddHistogramVec("dorado_fleet_op_queue_us",
		"Operation queue wait (submit accepted to worker pickup), microseconds, by kind.",
		queue...)
	sn.AddHistogramVec("dorado_fleet_op_service_us",
		"Operation service time (body execution), microseconds, by kind.",
		service...)

	sn.Add("dorado_fleet_session_cycles_total", "Machine cycle counter per session.", "counter", cyc...)
	sn.Add("dorado_fleet_session_instructions_total", "Executed microinstructions per session.", "counter", exec...)
	sn.Add("dorado_fleet_session_holds_total", "Held cycles per session.", "counter", holds...)
	if len(transBlocks) > 0 {
		sn.Add("dorado_translate_blocks_built_total", "Superblocks compiled, per translated session.", "counter", transBlocks...)
		sn.Add("dorado_translate_entries_total", "Superblock executions, per translated session.", "counter", transEntries...)
		sn.Add("dorado_translate_fused_cycles_total", "Cycles retired inside superblocks, per translated session.", "counter", transFused...)
		sn.Add("dorado_translate_invalidations_total", "Translation-cache flushes, per translated session.", "counter", transInvalids...)
	}
	if len(profExits) > 0 {
		sn.Add("dorado_prof_block_exits_total",
			"Superblock exits by reason, per profiled session (guard_fail counts rejected entries).",
			"counter", profExits...)
	}
	return sn
}

// Health is the cheap liveness view served by GET /healthz: session counts
// by residency plus the drain flag. It counts the session table's
// published views, taking no session lock, so a probe never waits behind
// a park or a running operation. A session whose revive failed counts as
// parked: like a parked one, it holds no machine.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	Draining bool   `json:"draining,omitempty"`
	Sessions struct {
		Active int64 `json:"active"`
		Parked int64 `json:"parked"`
		Total  int64 `json:"total"`
	} `json:"sessions"`
}

// Health reports the manager's liveness summary.
func (m *Manager) Health() Health { return m.health(m.table()) }

// health counts list, a copy of the session table, by residency.
func (m *Manager) health(list []*Session) Health {
	h := Health{Status: "ok"}
	if m.drainCtx.Err() != nil {
		h.Status = "draining"
		h.Draining = true
	}
	for _, s := range list {
		if s.published.Load().res == resLive {
			h.Sessions.Active++
		} else {
			h.Sessions.Parked++
		}
	}
	h.Sessions.Total = h.Sessions.Active + h.Sessions.Parked
	return h
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

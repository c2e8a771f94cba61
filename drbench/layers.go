package main

import (
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/obs"
)

// writePhase is what a workload hands over about the phase in which its
// databases commit, for the per-layer split of that phase.
type writePhase struct {
	id      int64 // phase span
	dur     time.Duration
	commits int64
	cpu     time.Duration
	rt0     runtimeStats
	rt1     runtimeStats
	meter   cloud.OpCounts // metered during the phase, flush included
	stored  int64          // bucket bytes after the phase
	stats   core.Stats     // the measured database's Ginja, after flush
	reg     *obs.Registry  // its metrics registry
	updates []time.Duration
}

// writeLayers derives the commit-path per-layer metrics.
func writeLayers(ix *spanIndex, w writePhase, out map[string]float64) {
	perCommit := func(x float64) float64 {
		if w.commits == 0 {
			return 0
		}
		return x / float64(w.commits)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	upd := ix.sum("minidb.update", w.id)
	core := ix.sum("core.write", w.id)
	disk := ix.sum("vfs.write", w.id)
	// minidb.update's direct children are core.write spans (the WAL and
	// checkpoint writes); core.write's are the vfs.write beneath it.
	out["minidb.commit_self_us"] = us(time.Duration(perCommit(float64(upd.self))))
	out["minidb.update_p50_ms"] = ms(quantile(w.updates, 0.50))
	out["minidb.update_p99_ms"] = ms(quantile(w.updates, 0.99))
	out["core.intercept_us_per_commit"] = us(time.Duration(perCommit(float64(core.self))))
	out["vfs.write_us_per_commit"] = us(time.Duration(perCommit(float64(disk.total))))
	out["vfs.write_bytes_per_commit"] = perCommit(float64(disk.bytes))

	out["core.safety_blocked_ms"] = ms(w.stats.BlockedTime)
	out["core.gate_blocked_ms"] = ms(w.stats.DumpGateBlockedTime)
	for _, st := range []string{"queue_wait", "aggregate", "seal", "upload", "durable_wait"} {
		v := 0.0
		if h, ok := histogram(w.reg, "ginja_pipeline_stage_seconds", "stage", st); ok {
			v = h.Quantiles["p50"] * 1000
		}
		out["pipeline."+st+"_ms"] = v
	}
	if w.stats.WALObjectsUploaded > 0 {
		out["pipeline.commits_per_object"] = float64(w.stats.UpdatesObserved) / float64(w.stats.WALObjectsUploaded)
	}
	if w.stats.WALBytesRaw > 0 {
		out["sealer.out_per_in"] = float64(w.stats.WALBytesUploaded) / float64(w.stats.WALBytesRaw)
	}
	out["ckpt.db_objects"] = float64(w.stats.DBObjectsUploaded)
	out["ckpt.dumps"] = float64(w.stats.Dumps)
	out["ckpt.db_mb"] = float64(w.stats.DBBytesUploaded) / (1 << 20)
	out["ckpt.gc_deletes"] = float64(w.stats.WALObjectsDeleted + w.stats.DBObjectsDeleted)

	puts := ix.sum("cloud.put", w.id)
	out["cloud.puts_per_commit"] = perCommit(float64(w.meter.Puts))
	out["cloud.put_kb_per_commit"] = perCommit(float64(w.meter.BytesUp) / 1024)
	out["cloud.put_ms_p50"] = ms(quantile(puts.durs, 0.50))
	if w.dur > 0 {
		out["cloud.put_inflight_mean"] = float64(puts.total) / float64(w.dur)
	}
	out["cloud.stored_mb"] = float64(w.stored) / (1 << 20)
	out["cloud.deletes"] = float64(ix.sum("cloud.delete", w.id).n)

	out["go.cpu_ms_per_commit"] = perCommit(ms(w.cpu))
	out["go.allocs_per_commit"] = perCommit(float64(w.rt1.allocs - w.rt0.allocs))
	out["go.alloc_kb_per_commit"] = perCommit(float64(w.rt1.allocBytes-w.rt0.allocBytes) / 1024)
	out["go.gc_cycles"] = float64(w.rt1.gcCycles - w.rt0.gcCycles)
}

// readLayers derives the recovery and promotion per-layer metrics from
// the restores of one round.
func readLayers(ix *spanIndex, cold []core.Stats, promotedApplied []int64, out map[string]float64) {
	n := func(xs []int64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s int64
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	meanMs := func(a agg) float64 {
		if a.n == 0 {
			return 0
		}
		return ms(a.total) / float64(a.n)
	}
	recov := ix.sum("recovery.recover", 0)
	out["recovery.restore_ms"] = meanMs(recov)
	out["minidb.open_ms"] = meanMs(ix.sum("minidb.open", 0))

	var restoreWrite, promoteList time.Duration
	recPhases, promPhases := ix.ids("phase.recover"), ix.ids("phase.promote")
	for _, id := range recPhases {
		restoreWrite += ix.sum("vfs.write", id).total
	}
	for _, id := range promPhases {
		promoteList += ix.sum("cloud.list", id).total
	}
	if len(recPhases) > 0 {
		out["vfs.restore_write_ms"] = ms(restoreWrite) / float64(len(recPhases))
	}
	if len(promPhases) > 0 {
		out["follower.promote_list_ms"] = ms(promoteList) / float64(len(promPhases))
	}
	out["follower.applied_objects"] = n(promotedApplied)

	var list, fetch, decode, apply, verify, objects, fetched []int64
	for _, st := range cold {
		bd := st.LastRecovery
		if bd == nil {
			continue
		}
		list = append(list, int64(bd.List))
		fetch = append(fetch, int64(bd.Fetch))
		decode = append(decode, int64(bd.Decode))
		apply = append(apply, int64(bd.Apply))
		verify = append(verify, int64(bd.Verify))
		objects = append(objects, int64(bd.Objects))
		fetched = append(fetched, bd.Bytes)
	}
	out["recovery.list_ms"] = n(list) / 1e6
	out["recovery.fetch_ms"] = n(fetch) / 1e6
	out["recovery.decode_ms"] = n(decode) / 1e6
	out["recovery.apply_ms"] = n(apply) / 1e6
	out["recovery.verify_ms"] = n(verify) / 1e6
	out["recovery.objects"] = n(objects)
	out["recovery.fetched_mb"] = n(fetched) / (1 << 20)

	// Cloud reads per cold recovery.
	var gets, lists agg
	for _, id := range recPhases {
		g, l := ix.sum("cloud.get", id), ix.sum("cloud.list", id)
		gets.n, gets.bytes, lists.n = gets.n+g.n, gets.bytes+g.bytes, lists.n+l.n
	}
	if k := float64(len(recPhases)); k > 0 {
		out["cloud.gets"] = float64(gets.n) / k
		out["cloud.get_mb"] = float64(gets.bytes) / (1 << 20) / k
		out["cloud.lists"] = float64(lists.n) / k
	}
}

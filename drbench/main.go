// Command drbench is Ginja's end-to-end benchmark: four workloads run
// against the middleware's public surface under the wall clock, each
// checked for correctness against the generator's own record of what it
// committed. See README.md for the workloads, the metrics and how to read
// them.
//
//	bash drbench/run.sh --workload burst --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 the layers are wrapped, spans are
// recorded and written to -spans, and the JSON carries every per-layer
// metric instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json.
var endToEnd = []metricDef{
	{"commits_per_s", "1/s"},
	{"cloud_bytes_per_user_byte", "ratio"},
	{"rpo_p50_ms", "ms"},
	{"rpo_p99_ms", "ms"},
	{"usd_per_month", "USD"},
	{"rto_ms", "ms"},
	{"promote_ms", "ms"},
	{"heap_kb_per_tenant", "KiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"minidb.commit_self_us", "us"},
	{"minidb.update_p50_ms", "ms"},
	{"minidb.update_p99_ms", "ms"},
	{"minidb.open_ms", "ms"},
	{"vfs.write_us_per_commit", "us"},
	{"vfs.write_bytes_per_commit", "B"},
	{"vfs.restore_write_ms", "ms"},
	{"core.intercept_us_per_commit", "us"},
	{"core.safety_blocked_ms", "ms"},
	{"core.gate_blocked_ms", "ms"},
	{"pipeline.queue_wait_ms", "ms"},
	{"pipeline.aggregate_ms", "ms"},
	{"pipeline.seal_ms", "ms"},
	{"pipeline.upload_ms", "ms"},
	{"pipeline.durable_wait_ms", "ms"},
	{"pipeline.commits_per_object", "ratio"},
	{"sealer.out_per_in", "ratio"},
	{"ckpt.db_objects", "count"},
	{"ckpt.dumps", "count"},
	{"ckpt.db_mb", "MiB"},
	{"ckpt.gc_deletes", "count"},
	{"cloud.puts_per_commit", "ratio"},
	{"cloud.put_kb_per_commit", "KiB"},
	{"cloud.put_ms_p50", "ms"},
	{"cloud.put_inflight_mean", "count"},
	{"cloud.gets", "count"},
	{"cloud.get_mb", "MiB"},
	{"cloud.lists", "count"},
	{"cloud.deletes", "count"},
	{"cloud.stored_mb", "MiB"},
	{"recovery.restore_ms", "ms"},
	{"recovery.list_ms", "ms"},
	{"recovery.fetch_ms", "ms"},
	{"recovery.decode_ms", "ms"},
	{"recovery.apply_ms", "ms"},
	{"recovery.verify_ms", "ms"},
	{"recovery.objects", "count"},
	{"recovery.fetched_mb", "MiB"},
	{"follower.promote_list_ms", "ms"},
	{"follower.applied_objects", "count"},
	{"fleet.admit_ms_per_tenant", "ms"},
	{"fleet.goroutines_per_tenant", "count"},
	{"fleet.safety_wait_ms_p99", "ms"},
	{"fleet.bulk_puts", "count"},
	{"go.cpu_ms_per_commit", "ms"},
	{"go.peak_heap_mb", "MiB"},
	{"go.allocs_per_commit", "count"},
	{"go.alloc_kb_per_commit", "KiB"},
	{"go.gc_cycles", "count"},
}

// round is one set-up, measured phase and check of a workload.
type round struct {
	setup time.Duration
	steal float64            // host CPU share stolen during the write phase
	e2e   map[string]float64 // this round's end-to-end values
	layer map[string]float64 // per-layer values the spans cannot give
	rpo   []time.Duration    // RPO samples of the write phase
	write *writePhase        // traced runs: the phase the per-layer split covers
}

type workload func(e *env) ([]round, error)

var workloads = map[string]workload{
	"burst":   runBurst,
	"paced":   runPaced,
	"recover": runRecover,
	"fleet":   runFleet,
}

func main() {
	name := flag.String("workload", "", "burst, paced, recover or fleet")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured phases of a run")
	trace := flag.Int("trace", 0, "1 wraps the layers, records spans and reports per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the span JSON of a traced run is written to")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown --workload %q (want burst, paced, recover or fleet)", *name)
	}
	if err := selfTest(); err != nil {
		fatalf("checker self-test: %v", err)
	}
	e := newEnv(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	fmt.Printf("drbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpu profile: %v", err)
		}
		defer f.Close()
	}
	rounds, err := w(e)
	pprof.StopCPUProfile()
	attempted, failed := e.report()
	if err != nil {
		fmt.Printf("FAILED: %v\n", err)
		emit(false, attempted, failed, map[string]any{})
		os.Exit(1)
	}

	e2e := finalEndToEnd(rounds)
	printMetrics("end-to-end", endToEnd, e2e)
	out := e2e
	if e.traced() {
		ix := indexSpans(e.tr.snapshot())
		layer := finalLayers(ix, e, rounds)
		printMetrics("per-layer", perLayer, layer)
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := e.tr.write(path); err != nil {
			fatalf("writing spans: %v", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(ix.spans), path)
		out = layer
	}
	defs := endToEnd
	if e.traced() {
		defs = perLayer
	}
	m := make(map[string]any, len(defs))
	for _, d := range defs {
		m[d.name] = map[string]any{"value": out[d.name], "unit": d.unit}
	}
	emit(true, attempted, failed, m)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "drbench: "+format+"\n", args...)
	os.Exit(2)
}

func emit(correct bool, attempted, failed int64, m map[string]any) {
	data, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": m,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(data))
}

// report prints the operations attempted and failed by kind and returns
// the totals.
func (e *env) report() (attempted, failed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kinds := make([]string, 0, len(e.ops))
	for k := range e.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := e.ops[k]
		fmt.Printf("ops %-10s attempted=%d failed=%d\n", k, c.attempted, c.failed)
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

func printMetrics(kind string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s %-30s %14.6g %s\n", kind, d.name, vals[d.name], d.unit)
	}
}

// finalEndToEnd picks the run's figures from its rounds. Other tenants of
// the machine steal CPU in bursts of seconds, and that only ever slows a
// round down, so the write-phase figures come from the round whose write
// phase committed fastest and each restore time is the lowest of the
// rounds' medians. Set-up time is the median of the rounds.
func finalEndToEnd(rounds []round) map[string]float64 {
	out := make(map[string]float64)
	best := rounds[0]
	var setups []float64
	for i, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		if r.e2e["commits_per_s"] > best.e2e["commits_per_s"] {
			best = r
		}
		for _, k := range []string{"rto_ms", "promote_ms"} {
			if i == 0 || r.e2e[k] < out[k] {
				out[k] = r.e2e[k]
			}
		}
		if v, ok := r.e2e["heap_kb_per_tenant"]; ok {
			out["heap_kb_per_tenant"] = v
		}
		fmt.Printf("round %d: set-up %.3f s, host steal %.1f%% during the write phase, %.1f commits/s\n",
			i+1, r.setup.Seconds(), 100*r.steal, r.e2e["commits_per_s"])
	}
	for _, k := range []string{"commits_per_s", "cloud_bytes_per_user_byte", "usd_per_month"} {
		out[k] = best.e2e[k]
	}
	out["setup_s"] = median(setups)
	out["rpo_p50_ms"] = ms(quantile(best.rpo, 0.50))
	out["rpo_p99_ms"] = ms(quantile(best.rpo, 0.99))
	fmt.Printf("samples rounds=%d setups=%d rpo=%d in the fastest round (p99 has %d beyond it)\n",
		len(rounds), len(setups), len(best.rpo), len(best.rpo)/100)
	return out
}

// finalLayers derives the per-layer metrics of a traced run: the write
// phase of each round (median across rounds) and every restore of the run.
func finalLayers(ix *spanIndex, e *env, rounds []round) map[string]float64 {
	per := make(map[string][]float64)
	for _, r := range rounds {
		m := make(map[string]float64)
		if r.write != nil {
			writeLayers(ix, *r.write, m)
			fmt.Printf("samples minidb.update=%d in this round (p99 has %d beyond it)\n",
				len(r.write.updates), len(r.write.updates)/100)
		}
		for k, v := range r.layer {
			m[k] = v
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
	}
	out := make(map[string]float64)
	for k, vs := range per {
		out[k] = median(vs)
	}
	readLayers(ix, e.cold, e.promoted, out)
	return out
}

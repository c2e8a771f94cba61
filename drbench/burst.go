package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// burst: one client commits a fixed number of small write-only
// transactions as fast as it can. The cloud model is scaled so the WAN
// round trip stays far below what S=1000 pending updates take to build up,
// so no commit waits on the cloud and the time goes to CPU: the engine, the
// disk, the intercept, packing, sealing and checkpoint uploads.
const (
	burstRows       = 20000 // preloaded table
	burstValue      = 100   // bytes per value, hex text (about 2× compressible)
	burstRowsPerTxn = 4
	burstCommits    = 20000 // per round: a fixed amount of work
	burstCheckpoint = 4000  // minidb auto-checkpoint interval, in commits
	burstZipf       = 1.1   // key skew
	burstTimeScale  = 20    // WAN 400 ms round trip → 20 ms
	burstRestores   = 3     // cold recoveries and promotions per round
)

func burstParams(reg *obs.Registry) core.Params {
	p := core.DefaultParams() // B=100, S=1000
	p.Compress, p.Encrypt, p.Password = true, true, "drbench"
	// Batches fill by count within milliseconds; TB only bounds how long
	// the round's final partial batch waits before the flush.
	p.BatchTimeout = time.Second
	p.Metrics = reg
	return p
}

func pgEngine() minidb.Engine { return pgengine.New() }

func runBurst(e *env) ([]round, error) {
	var rounds []round
	var measured time.Duration
	// Whole rounds of the same fixed work until the run's time is spent.
	for len(rounds) == 0 || measured < e.seconds {
		r, err := burstRound(e, rand.New(rand.NewSource(e.rng.Int63())), len(rounds) == 0)
		if err != nil {
			return nil, fmt.Errorf("burst round %d: %w", len(rounds)+1, err)
		}
		rounds = append(rounds, r)
		measured += time.Duration(float64(burstCommits) / r.e2e["commits_per_s"] * float64(time.Second))
	}
	return rounds, nil
}

// preload builds a table of rows keyed key(i) on a bare disk, before
// Ginja protects it, and returns the oracle of its contents.
func preload(fsys vfs.FS, engine minidb.Engine, table string, rows, valueLen int, key func(int) string, r *rand.Rand) (map[string]string, error) {
	db, err := minidb.Open(fsys, engine, minidb.Options{})
	if err != nil {
		return nil, err
	}
	perPage := engine.PageSize() / (valueLen + len(key(0)) + 16)
	if err := db.CreateTable(table, uint32(rows/perPage*3/2+1)); err != nil {
		return nil, err
	}
	oracle := make(map[string]string, rows)
	const batch = 500
	for i := 0; i < rows; i += batch {
		err := db.Update(func(tx *minidb.Txn) error {
			for j := i; j < i+batch && j < rows; j++ {
				v := value(r, valueLen)
				oracle[key(j)] = string(v)
				if err := tx.Put(table, []byte(key(j)), v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return oracle, db.Close()
}

func burstKey(i int) string { return fmt.Sprintf("k%06d", i) }

func burstRound(e *env, r *rand.Rand, first bool) (round, error) {
	ctx := context.Background()
	l := e.tr.lane()
	var reg *obs.Registry
	if e.traced() {
		reg = obs.NewRegistry()
	}
	params := burstParams(reg)
	spec := dbSpec{params: burstParams(nil), engine: pgEngine, probe: [2]string{"kv", burstKey(0)}}

	start := time.Now()
	local := e.disk()
	oracle, err := preload(local, pgEngine(), "kv", burstRows, burstValue, burstKey, r)
	if err != nil {
		return round{}, fmt.Errorf("preload: %w", err)
	}
	bucket := e.bucket()
	cs := e.stack(bucket, cloudsim.WANProfile(), burstTimeScale)
	var paused time.Duration
	heap0 := e.heapMark(first, &paused)
	g, err := core.New(wrapFS(local, "vfs.write", l), cs.top, dbevent.NewPGProcessor(), params)
	if err != nil {
		return round{}, err
	}
	defer g.Close()
	if err := g.Boot(ctx); err != nil {
		return round{}, fmt.Errorf("boot: %w", err)
	}
	heap1 := e.heapMark(first, &paused)
	db, err := minidb.Open(wrapFS(g.FS(), "core.write", l), pgEngine(),
		minidb.Options{AutoCheckpointCommits: burstCheckpoint})
	if err != nil {
		return round{}, err
	}
	setup := time.Since(start) - paused

	zipf := rand.NewZipf(r, burstZipf, 1, burstRows-1)
	keys := make([]string, burstRowsPerTxn)
	vals := make([][]byte, burstRowsPerTxn)
	updates := make([]time.Duration, 0, burstCommits)
	var userBytes int64

	cs.meter.Reset()
	phaseID, endPhase := e.tr.beginPhase("phase.write")
	heap := e.watchHeap()
	rpo := sample(2*time.Millisecond, g.RPO)
	steal0, ticks0 := hostTicks()
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	for i := 0; i < burstCommits; i++ {
		for j := range keys {
			keys[j] = burstKey(int(zipf.Uint64()))
			vals[j] = value(r, burstValue)
		}
		c0 := time.Now()
		err := update(l, db, func(tx *minidb.Txn) error {
			for j := range keys {
				if err := tx.Put("kv", []byte(keys[j]), vals[j]); err != nil {
					return err
				}
			}
			return nil
		})
		updates = append(updates, time.Since(c0))
		if e.count("commit", err) != nil {
			endPhase()
			rpo.end()
			heap.end()
			return round{}, fmt.Errorf("commit %d: %w", i, err)
		}
		for j := range keys {
			oracle[keys[j]] = string(vals[j])
			userBytes += int64(len(keys[j]) + len(vals[j]))
		}
	}
	elapsed, cpu, rt1 := time.Since(t0), cpuTime()-cpu0, readRuntime()
	steal := stealShare(steal0, ticks0)
	samples := rpo.end()
	peak := heap.end()
	if !g.Flush(time.Minute) || !g.SyncCheckpoints(time.Minute) {
		endPhase()
		return round{}, fmt.Errorf("flush after the burst did not drain: %v", g.Err())
	}
	endPhase()
	counts := cs.meter.Counts()
	st := g.Stats()

	rto, prom, err := e.restoreBoth(bucket, spec, burstRestores, func(db *minidb.DB) error {
		got, err := readTable(db, "kv")
		if err != nil {
			return err
		}
		return checkEqual(oracle, got)
	})
	if err != nil {
		return round{}, err
	}
	if err := g.Close(); err != nil {
		return round{}, fmt.Errorf("close: %w", err)
	}
	e.forget()

	rd := round{
		setup: setup,
		steal: steal,
		rpo:   samples,
		e2e: map[string]float64{
			"commits_per_s":             float64(burstCommits) / elapsed.Seconds(),
			"cloud_bytes_per_user_byte": float64(counts.BytesUp) / float64(userBytes),
			"usd_per_month":             bill(counts, elapsed),
			"rto_ms":                    rto,
			"promote_ms":                prom,
		},
		layer: map[string]float64{"go.peak_heap_mb": peak},
	}
	if first {
		rd.e2e["heap_kb_per_tenant"] = float64(heap1-heap0) / 1024
	}
	if e.traced() {
		rd.write = &writePhase{id: phaseID, dur: elapsed, commits: burstCommits, cpu: cpu,
			rt0: rt0, rt1: rt1, meter: counts, stored: bucket.TotalSize(), stats: st, reg: reg,
			updates: updates}
	}
	fmt.Printf("round burst: %d commits in %v (%.0f/s), cpu %v, puts %d, dumps %d, checkpoints %d, blocked %v\n",
		burstCommits, elapsed.Round(time.Millisecond), float64(burstCommits)/elapsed.Seconds(),
		cpu.Round(time.Millisecond), counts.Puts, st.Dumps, st.Checkpoints, st.BlockedTime)
	return rd, nil
}

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
)

// recover: set-up writes a compressed and encrypted database with a
// history — the boot dump, later checkpoints and dumps, and a WAL tail of
// hundreds of objects — while a follower tails the bucket. The measured
// phase then restores it over and over with the in-region profile: cold
// recoveries and follower promotions, with the commit path idle. The time
// goes to LIST, GET, unseal, apply, verify and the engine's replay.
const (
	recRows        = 6000 // preloaded rows
	recValue       = 1000 // bytes per value
	recCycles      = 6    // history: commit-then-checkpoint cycles
	recCycleTxns   = 400  // commits per cycle, on uniformly chosen rows
	recTailTxns    = 2000 // commits after the last checkpoint: the WAL tail
	recRowsPerTxn  = 2
	recBatch       = 10 // B: small batches make the tail hundreds of objects
	recMaxObject   = 2 << 20
	recFollowEvery = 100 * time.Millisecond
)

func recParams(reg *obs.Registry) core.Params {
	p := core.DefaultParams()
	p.Batch = recBatch
	p.BatchTimeout = 200 * time.Millisecond
	p.MaxObjectSize = recMaxObject
	p.Compress, p.Encrypt, p.Password = true, true, "drbench"
	p.FollowInterval = recFollowEvery
	p.Metrics = reg
	return p
}

func recKey(i int) string { return fmt.Sprintf("r%06d", i) }

func runRecover(e *env) ([]round, error) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(e.rng.Int63()))
	l := e.tr.lane()
	var reg *obs.Registry
	if e.traced() {
		reg = obs.NewRegistry()
	}
	spec := dbSpec{params: recParams(nil), engine: recEngine, probe: [2]string{"kv", recKey(0)}}

	start := time.Now()
	local := e.disk()
	oracle, err := preload(local, recEngine(), "kv", recRows, recValue, recKey, r)
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	bucket := e.bucket()
	cs := e.stack(bucket, cloudsim.LANProfile(), 1)
	var paused time.Duration
	heap0 := e.heapMark(true, &paused)
	g, err := core.New(wrapFS(local, "vfs.write", l), cs.top, dbevent.NewPGProcessor(), recParams(reg))
	if err != nil {
		return nil, err
	}
	defer g.Close()
	if err := g.Boot(ctx); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	heap1 := e.heapMark(true, &paused)
	tail, tailRO, err := e.follow(bucket, spec)
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	db, err := minidb.Open(wrapFS(g.FS(), "core.write", l), recEngine(), minidb.Options{})
	if err != nil {
		return nil, err
	}

	// The history: checkpointed cycles, then the uncheckpointed tail.
	var userBytes int64
	var updates []time.Duration
	commits := 0
	commit := func() error {
		keys := make([]string, recRowsPerTxn)
		vals := make([][]byte, recRowsPerTxn)
		for j := range keys {
			keys[j] = recKey(r.Intn(recRows))
			vals[j] = value(r, recValue)
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
			return fmt.Errorf("commit %d: %w", commits, err)
		}
		commits++
		for j := range keys {
			oracle[keys[j]] = string(vals[j])
			userBytes += int64(len(keys[j]) + len(vals[j]))
		}
		return nil
	}
	cs.meter.Reset()
	phaseID, endPhase := e.tr.beginPhase("phase.write")
	rpo := sample(time.Millisecond, g.RPO)
	steal0, ticks0 := hostTicks()
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	for c := 0; c < recCycles; c++ {
		for i := 0; i < recCycleTxns; i++ {
			if err := commit(); err != nil {
				rpo.end()
				return nil, err
			}
		}
		// Each checkpoint is uploaded before the next cycle, so whether it
		// becomes a dump depends on sizes alone, not on upload timing.
		if err := db.Checkpoint(); err != nil || !g.SyncCheckpoints(time.Minute) {
			rpo.end()
			return nil, fmt.Errorf("checkpoint: %v %v", err, g.Err())
		}
	}
	for i := 0; i < recTailTxns; i++ {
		if err := commit(); err != nil {
			rpo.end()
			return nil, err
		}
	}
	elapsed, cpu, rt1 := time.Since(t0), cpuTime()-cpu0, readRuntime()
	steal := stealShare(steal0, ticks0)
	samples := rpo.end()
	if !g.Flush(time.Minute) || !g.SyncCheckpoints(time.Minute) {
		return nil, fmt.Errorf("flush after the history did not drain: %v", g.Err())
	}
	endPhase()
	counts := cs.meter.Counts()
	st := g.Stats()
	last := g.View().LastWALTs()
	if err := g.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	for deadline := time.Now().Add(time.Minute); tail.Stats().AppliedTs < last; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower stuck at ts %d of %d: %v", tail.Stats().AppliedTs, last, tail.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	setup := time.Since(start) - paused
	objects := bucket.Len()
	fmt.Printf("history: %d commits in %v (%.0f/s), checkpoints %d, dumps %d, wal objects %d, bucket %d objects %.1f MiB, local %.1f MiB\n",
		commits, elapsed.Round(time.Millisecond), float64(commits)/elapsed.Seconds(), st.Checkpoints, st.Dumps,
		st.WALObjectsUploaded, objects, float64(bucket.TotalSize())/(1<<20), float64(diskBytes(local))/(1<<20))

	check := func(db *minidb.DB) error {
		got, err := readTable(db, "kv")
		if err != nil {
			return err
		}
		return checkEqual(oracle, got)
	}
	// The first promotion is the follower that tailed the history; each
	// later one is a fresh follower that caught up before being promoted.
	heap := e.watchHeap()
	var rtos, proms []float64
	f, ro := tail, tailRO
	for m0 := time.Now(); len(rtos) == 0 || time.Since(m0) < e.seconds; {
		d, err := e.restorePromoted(f, ro, spec, check)
		if err != nil {
			heap.end()
			return nil, err
		}
		proms = append(proms, ms(d))
		if d, err = e.restoreCold(bucket, spec, check); err != nil {
			heap.end()
			return nil, err
		}
		rtos = append(rtos, ms(d))
		if f, ro, err = e.follow(bucket, spec); err != nil {
			heap.end()
			return nil, fmt.Errorf("follower: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		heap.end()
		return nil, fmt.Errorf("follower: %w", err)
	}
	peak := heap.end()
	fmt.Printf("restores: %d promotions, p50 %.1f ms; %d cold recoveries, p50 %.1f ms\n",
		len(proms), median(proms), len(rtos), median(rtos))

	rd := round{
		setup: setup,
		steal: steal,
		rpo:   samples,
		e2e: map[string]float64{
			"commits_per_s":             float64(commits) / elapsed.Seconds(),
			"cloud_bytes_per_user_byte": float64(counts.BytesUp) / float64(userBytes),
			"usd_per_month":             bill(counts, elapsed),
			"rto_ms":                    median(rtos),
			"promote_ms":                median(proms),
			"heap_kb_per_tenant":        float64(heap1-heap0) / 1024,
		},
		layer: map[string]float64{"go.peak_heap_mb": peak},
	}
	if e.traced() {
		rd.write = &writePhase{id: phaseID, dur: elapsed, commits: int64(commits), cpu: cpu,
			rt0: rt0, rt1: rt1, meter: counts, stored: bucket.TotalSize(), stats: st, reg: reg,
			updates: updates}
	}
	return []round{rd}, nil
}

func recEngine() minidb.Engine { return pgengine.NewWithSizes(8192, 1<<20, 8192) }

package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/obs"
)

// paced: one generator commits on a fixed schedule (open loop) against
// the paper's default parameters and its WAN profile in real time. The CPU
// idles; durability lag and the bill are set by batching, timers and the
// PUT round trip. Each round ends by cutting cloud access mid-stream and
// recovering from what the bucket held at that instant.
const (
	pacedRate       = 200 // commits per second
	pacedRounds     = 2
	pacedValue      = 64                     // mean bytes per value; uniform in [32, 96]
	pacedCheckpoint = 500                    // minidb auto-checkpoint interval, in commits
	pacedCut        = 500 * time.Millisecond // commits keep coming this long after the cut
	pacedRestores   = 5                      // cold recoveries and promotions per round
)

func pacedParams(reg *obs.Registry) core.Params {
	p := core.DefaultParams() // B=100, S=1000, TS=60 s, plain objects
	// A batch fills in B/rate = 0.5 s, so TB never fires while the
	// generator runs; it only bounds how long the round's final partial
	// batch waits before Close can drain it.
	p.BatchTimeout = time.Second
	p.Metrics = reg
	return p
}

func runPaced(e *env) ([]round, error) {
	var rounds []round
	for i := 0; i < pacedRounds; i++ {
		r, err := pacedRound(e, rand.New(rand.NewSource(e.rng.Int63())), e.seconds/pacedRounds, i == 0)
		if err != nil {
			return nil, fmt.Errorf("paced round %d: %w", i+1, err)
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

func pacedRound(e *env, r *rand.Rand, length time.Duration, first bool) (round, error) {
	ctx := context.Background()
	l := e.tr.lane()
	var reg *obs.Registry
	if e.traced() {
		reg = obs.NewRegistry()
	}
	params := pacedParams(reg)
	spec := dbSpec{params: pacedParams(nil), engine: pgEngine, probe: [2]string{"meta", "n"}}

	start := time.Now()
	local := e.disk()
	db0, err := minidb.Open(local, pgEngine(), minidb.Options{})
	if err != nil {
		return round{}, err
	}
	if err := db0.CreateTable("seq", 64); err != nil {
		return round{}, err
	}
	if err := db0.Update(func(tx *minidb.Txn) error { return tx.Put("meta", []byte("n"), []byte("0")) }); err != nil {
		return round{}, err
	}
	if err := db0.Close(); err != nil {
		return round{}, err
	}
	bucket := e.bucket()
	cs := e.stack(bucket, cloudsim.WANProfile(), 1)
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
		minidb.Options{AutoCheckpointCommits: pacedCheckpoint})
	if err != nil {
		return round{}, err
	}
	setup := time.Since(start) - paused

	var (
		acked     int64
		userBytes int64
		late      []time.Duration
		updates   []time.Duration
	)
	commit := func(due time.Time) error {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(due))
		k := []byte(seqKey(acked))
		v := value(r, pacedValue-4+r.Intn(9))
		n := []byte(strconv.FormatInt(acked+1, 10))
		c0 := time.Now()
		err := update(l, db, func(tx *minidb.Txn) error {
			if err := tx.Put("seq", k, v); err != nil {
				return err
			}
			return tx.Put("meta", []byte("n"), n)
		})
		updates = append(updates, time.Since(c0))
		if e.count("commit", err) != nil {
			return err
		}
		acked++
		userBytes += int64(len(k) + len(v) + len("n") + len(n))
		return nil
	}

	cs.meter.Reset()
	phaseID, endPhase := e.tr.beginPhase("phase.write")
	heap := e.watchHeap()
	rpo := sample(5*time.Millisecond, g.RPO)
	steal0, ticks0 := hostTicks()
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	total := int64(length.Seconds() * pacedRate)
	interval := time.Second / pacedRate
	for i := int64(0); i < total; i++ {
		if err := commit(t0.Add(time.Duration(i) * interval)); err != nil {
			endPhase()
			rpo.end()
			heap.end()
			return round{}, fmt.Errorf("commit %d: %w", i, err)
		}
	}
	elapsed, cpu, rt1 := time.Since(t0), cpuTime()-cpu0, readRuntime()
	steal := stealShare(steal0, ticks0)
	samples := rpo.end()
	peak := heap.end()
	endPhase()
	counts := cs.meter.Counts()
	st := g.Stats()
	commits, phaseBytes := acked, userBytes

	// The disaster: the cloud becomes unreachable mid-stream, commits keep
	// coming for a while, and what the bucket holds then is all there is.
	cs.sim.StartOutage()
	cutAt := t0.Add(time.Duration(total) * interval)
	for i := total; i < total+int64(pacedCut/interval); i++ {
		if err := commit(cutAt.Add(time.Duration(i-total) * interval)); err != nil {
			return round{}, fmt.Errorf("commit %d after the cut: %w", i, err)
		}
	}
	snapshot, err := e.cloneBucket(bucket)
	if err != nil {
		return round{}, err
	}
	cs.sim.EndOutage()

	var recovered []int64
	rto, prom, err := e.restoreBoth(snapshot, spec, pacedRestores, func(db *minidb.DB) error {
		rows, err := readTable(db, "seq")
		if err != nil {
			return err
		}
		counter, err := db.Get("meta", []byte("n"))
		if err != nil {
			return err
		}
		n, err := checkPrefix(rows, string(counter), acked, params.Safety)
		recovered = append(recovered, n)
		return err
	})
	if err != nil {
		return round{}, err
	}
	if !g.Flush(time.Minute) {
		return round{}, fmt.Errorf("flush after the outage did not drain: %v", g.Err())
	}
	if err := g.Close(); err != nil {
		return round{}, fmt.Errorf("close: %w", err)
	}
	e.forget()

	fmt.Printf("round paced: %d commits in %v, generator late p50 %v p99 %v max %v (n=%d); cut after %d acked, recovered %v; puts %d, checkpoints %d, dumps %d\n",
		commits, elapsed.Round(time.Millisecond), quantile(late, 0.5), quantile(late, 0.99),
		quantile(late, 1), len(late), acked, recovered, counts.Puts, st.Checkpoints, st.Dumps)
	rd := round{
		setup: setup,
		steal: steal,
		rpo:   samples,
		e2e: map[string]float64{
			"commits_per_s":             float64(commits) / elapsed.Seconds(),
			"cloud_bytes_per_user_byte": float64(counts.BytesUp) / float64(phaseBytes),
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
		rd.write = &writePhase{id: phaseID, dur: elapsed, commits: commits, cpu: cpu,
			rt0: rt0, rt1: rt1, meter: counts, stored: counts.StoredBytes, stats: st, reg: reg,
			updates: updates}
	}
	return rd, nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// fleet: one Fleet with hundreds of idle tenants (tiny databases, timers
// armed), one hot tenant committing in a closed loop at S=B=1 so every
// commit waits for its own Safety-class PUT, and one antagonist tenant
// writing and checkpointing continuously. The shared upload pool is small
// enough for the antagonist's checkpoint parts alone to fill it.
const (
	fleetTenants    = 200 // idle + hot + antagonist
	fleetRounds     = 2
	fleetSlots      = 4 // fleet-wide concurrent PUT/DELETE
	fleetTimeScale  = 25
	fleetHotValue   = 100
	fleetAntaRows   = 256
	fleetAntaValue  = 2000
	fleetAntaBurst  = 64 // antagonist commits between its checkpoints
	fleetAntaPart   = 64 << 10
	fleetBootAtOnce = 8   // tenants booting concurrently during set-up
	fleetRestores   = 5   // cold recoveries and promotions of the hot tenant per round
	fleetHotCkpt    = 100 // hot tenant's auto-checkpoint interval, in commits
)

func tenantID(i int) string { return fmt.Sprintf("t%04d", i) }

const (
	hotTenant  = 0
	antaTenant = 1
)

func fleetParams(i int, reg *obs.Registry) core.Params {
	p := core.DefaultParams()
	p.Uploaders = 1
	p.BatchTimeout = 100 * time.Millisecond
	switch i {
	case hotTenant:
		p.Batch, p.Safety = 1, 1 // the paper's No-Loss setting
		p.Metrics = reg
	case antaTenant:
		p.MaxObjectSize = fleetAntaPart
		p.CheckpointUploaders = fleetSlots
	}
	return p
}

// tinyEngine is the geometry of the idle tenants: a few KiB on disk each.
func tinyEngine() minidb.Engine { return pgengine.NewWithSizes(512, 64<<10, 1024) }

func fleetEngine(i int) func() minidb.Engine {
	if i == hotTenant || i == antaTenant {
		return pgEngine
	}
	return tinyEngine
}

func runFleet(e *env) ([]round, error) {
	var rounds []round
	for i := 0; i < fleetRounds; i++ {
		r, err := fleetRound(e, rand.New(rand.NewSource(e.rng.Int63())), e.seconds/fleetRounds, i == 0)
		if err != nil {
			return nil, fmt.Errorf("fleet round %d: %w", i+1, err)
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

type tenant struct {
	id     string
	g      *core.Ginja
	db     *minidb.DB
	oracle map[string]string
}

func fleetRound(e *env, r *rand.Rand, length time.Duration, first bool) (round, error) {
	ctx := context.Background()
	var hotReg, fleetReg *obs.Registry
	if e.traced() {
		hotReg, fleetReg = obs.NewRegistry(), obs.NewRegistry()
	}
	start := time.Now()
	bucket := e.bucket()
	cs := e.stack(bucket, cloudsim.WANProfile(), fleetTimeScale)

	// Each tenant's database is built on its own disk before admission:
	// a one-row table for the idle ones, small tables for the others.
	disks := make([]*vfs.MemFS, fleetTenants)
	oracles := make([]map[string]string, fleetTenants)
	for i := range disks {
		disks[i] = e.disk()
		rows, size := 1, 32
		if i == antaTenant {
			rows, size = fleetAntaRows, fleetAntaValue
		}
		id := tenantID(i)
		o, err := preload(disks[i], fleetEngine(i)(), "kv", rows, size,
			func(j int) string { return fmt.Sprintf("%s/%04d", id, j) }, r)
		if err != nil {
			return round{}, fmt.Errorf("tenant %s preload: %w", id, err)
		}
		oracles[i] = o
	}

	var paused time.Duration
	heap0 := e.heapMark(first, &paused)
	gor0 := runtime.NumGoroutine()
	fl, err := core.NewFleet(core.FleetParams{Store: cs.top, UploadSlots: fleetSlots,
		TenantCap: fleetSlots, Metrics: fleetReg})
	if err != nil {
		return round{}, err
	}
	defer fl.Close()

	// Admission: Admit + Boot per tenant, a few at a time.
	tenants := make([]*tenant, fleetTenants)
	// Only the hot tenant's layers are wrapped: the per-layer split of the
	// phase is the hot commit's.
	hotLane := e.tr.lane()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		admitDur time.Duration
	)
	sem := make(chan struct{}, fleetBootAtOnce)
	for i := 0; i < fleetTenants; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			l := e.tr.lane()
			var local vfs.FS = disks[i]
			if i == hotTenant {
				local = wrapFS(disks[i], "vfs.write", hotLane)
			}
			t0 := time.Now()
			o := l.begin("fleet.admit")
			g, err := fl.Admit(tenantID(i), local, dbevent.NewPGProcessor(), fleetParams(i, hotReg))
			if err == nil {
				err = g.Boot(ctx)
			}
			l.end(o, 0, err != nil)
			e.count("admission", err)
			mu.Lock()
			defer mu.Unlock()
			admitDur += time.Since(t0)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("admit %s: %w", tenantID(i), err)
			}
			tenants[i] = &tenant{id: tenantID(i), g: g, oracle: oracles[i]}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return round{}, firstErr
	}
	heap1 := e.heapMark(first, &paused)
	gor1 := runtime.NumGoroutine()

	hot, anta := tenants[hotTenant], tenants[antaTenant]
	if hot.db, err = minidb.Open(wrapFS(hot.g.FS(), "core.write", hotLane), pgEngine(),
		minidb.Options{AutoCheckpointCommits: fleetHotCkpt}); err != nil {
		return round{}, err
	}
	if anta.db, err = minidb.Open(anta.g.FS(), pgEngine(), minidb.Options{}); err != nil {
		return round{}, err
	}
	setup := time.Since(start) - paused

	// Measured phase: two load goroutines for length.
	cs.meter.Reset()
	phaseID, endPhase := e.tr.beginPhase("phase.write")
	heap := e.watchHeap()
	rpo := sample(2*time.Millisecond, hot.g.RPO)
	steal0, ticks0 := hostTicks()
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	deadline := t0.Add(length)
	var (
		lat       []time.Duration
		hotBytes  int64
		antaBytes int64
		antaCkpts int
		hotErr    error
		antaErr   error
	)
	hr := rand.New(rand.NewSource(r.Int63()))
	ar := rand.New(rand.NewSource(r.Int63()))
	wg.Add(2)
	hotCommit := func() error {
		k := fmt.Sprintf("%s/h%05d", hot.id, hr.Intn(1000))
		v := value(hr, fleetHotValue)
		c0 := time.Now()
		err := update(hotLane, hot.db, func(tx *minidb.Txn) error { return tx.Put("kv", []byte(k), v) })
		lat = append(lat, time.Since(c0))
		if e.count("commit", err) != nil {
			return err
		}
		hot.oracle[k] = string(v)
		hotBytes += int64(len(k) + len(v))
		return nil
	}
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) && hotErr == nil {
			hotErr = hotCommit()
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			for j := 0; j < fleetAntaBurst; j++ {
				k := fmt.Sprintf("%s/%04d", anta.id, ar.Intn(fleetAntaRows))
				v := value(ar, fleetAntaValue)
				err := anta.db.Update(func(tx *minidb.Txn) error { return tx.Put("kv", []byte(k), v) })
				if e.count("commit", err) != nil {
					antaErr = err
					return
				}
				anta.oracle[k] = string(v)
				antaBytes += int64(len(k) + len(v))
			}
			if antaErr = anta.db.Checkpoint(); antaErr != nil {
				return
			}
			antaCkpts++
			// The next burst waits for this checkpoint's upload, so the
			// antagonist keeps the bulk pool busy without spinning a core.
			if !anta.g.SyncCheckpoints(time.Minute) {
				antaErr = fmt.Errorf("checkpoint did not complete: %v", anta.g.Err())
				return
			}
		}
	}()
	wg.Wait()
	elapsed, cpu, rt1 := time.Since(t0), cpuTime()-cpu0, readRuntime()
	counts := cs.meter.Counts()
	phaseLat, userBytes := lat, hotBytes+antaBytes
	steal := stealShare(steal0, ticks0)
	samples := rpo.end()
	peak := heap.end()
	if hotErr != nil || antaErr != nil {
		endPhase()
		return round{}, fmt.Errorf("load: hot %v, antagonist %v", hotErr, antaErr)
	}
	// Every restore then replays the same WAL tail: a checkpoint, then half
	// a checkpoint interval of commits.
	hotErr = hot.db.Checkpoint()
	for i := 0; i < fleetHotCkpt/2 && hotErr == nil; i++ {
		hotErr = hotCommit()
	}
	if hotErr != nil {
		endPhase()
		return round{}, fmt.Errorf("hot tenant after the load: %w", hotErr)
	}
	if !hot.g.Flush(time.Minute) || !anta.g.Flush(time.Minute) || !anta.g.SyncCheckpoints(time.Minute) {
		endPhase()
		return round{}, fmt.Errorf("flush after the load did not drain")
	}
	endPhase()
	hotStats, antaStats := hot.g.Stats(), anta.g.Stats()
	if antaStats.Checkpoints+antaStats.Dumps == 0 || antaCkpts == 0 {
		return round{}, fmt.Errorf("the antagonist's checkpoints never completed (%d begun)", antaCkpts)
	}
	fst := fl.Stats()

	// The hot tenant comes back from its own prefix, alone.
	spec := dbSpec{params: fleetParams(hotTenant, nil), engine: pgEngine, probe: [2]string{"kv", hot.id + "/0000"}}
	spec.params.Prefix = core.DefaultFleetPrefixRoot + "/" + hot.id
	spec.params.Uploaders = core.DefaultUploaders // the restoring process fetches in parallel
	rto, prom, err := e.restoreBoth(bucket, spec, fleetRestores, func(db *minidb.DB) error {
		got, err := readTable(db, "kv")
		if err != nil {
			return err
		}
		return checkTenant(hot.id, hot.oracle, got)
	})
	if err != nil {
		return round{}, fmt.Errorf("hot tenant: %w", err)
	}
	if err := fl.Close(); err != nil {
		return round{}, fmt.Errorf("fleet close: %w", err)
	}
	e.forget()

	fmt.Printf("round fleet: %d tenants admitted in %v; hot %d commits p50 %v p99 %v (n=%d); antagonist %d commits, %d checkpoints, %d dumps; safety deadline misses %d\n",
		fleetTenants, setup.Round(time.Millisecond), len(phaseLat), quantile(phaseLat, 0.5).Round(time.Microsecond),
		quantile(phaseLat, 0.99).Round(time.Microsecond), len(phaseLat), antaStats.UpdatesObserved, antaCkpts, antaStats.Dumps,
		fst.SafetyDeadlineMisses)
	rd := round{
		setup: setup,
		steal: steal,
		rpo:   samples,
		e2e: map[string]float64{
			"commits_per_s":             float64(len(phaseLat)) / elapsed.Seconds(),
			"cloud_bytes_per_user_byte": float64(counts.BytesUp) / float64(userBytes),
			"usd_per_month":             bill(counts, elapsed),
			"rto_ms":                    rto,
			"promote_ms":                prom,
		},
		layer: map[string]float64{
			"go.peak_heap_mb":             peak,
			"fleet.admit_ms_per_tenant":   ms(admitDur) / fleetTenants,
			"fleet.goroutines_per_tenant": float64(gor1-gor0) / fleetTenants,
		},
	}
	if first {
		rd.e2e["heap_kb_per_tenant"] = float64(heap1-heap0) / 1024 / fleetTenants
	}
	if e.traced() {
		rd.write = &writePhase{id: phaseID, dur: elapsed, commits: int64(len(phaseLat)), cpu: cpu,
			rt0: rt0, rt1: rt1, meter: counts, stored: bucket.TotalSize(), stats: hotStats, reg: hotReg,
			updates: phaseLat}
		if h, ok := histogram(fleetReg, "ginja_fleet_sched_wait_seconds", "class", "safety"); ok {
			rd.layer["fleet.safety_wait_ms_p99"] = h.Quantiles["p99"] * 1000
		}
		for _, m := range fleetReg.Snapshot() {
			if m.Name == "ginja_fleet_ops_total" && m.Labels["class"] == "bulk" {
				rd.layer["fleet.bulk_puts"] = m.Value
			}
		}
	}
	return rd, nil
}

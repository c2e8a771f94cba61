package main

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// env is one run's shared state: its seed, its length, the tracer of a
// traced run, and every in-memory disk and bucket the run created (their
// bytes are subtracted from the heap to get the middleware's own memory).
type env struct {
	seconds time.Duration
	tr      *tracer
	rng     *rand.Rand

	mu      sync.Mutex
	disks   []*vfs.MemFS
	buckets []*cloud.MemStore
	ops     map[string]*opCount

	// cold holds the Stats of every cold recovery's Ginja, promoted the
	// objects each promoted follower had applied (per-layer inputs).
	cold     []core.Stats
	promoted []int64
}

type opCount struct{ attempted, failed int64 }

func newEnv(seed int64, seconds time.Duration, traced bool) *env {
	e := &env{seconds: seconds, rng: rand.New(rand.NewSource(seed)),
		ops: make(map[string]*opCount)}
	if traced {
		e.tr = newTracer()
	}
	return e
}

func (e *env) traced() bool { return e.tr != nil }

// count records one attempted operation of kind op and whether it failed.
func (e *env) count(op string, err error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.ops[op]
	if c == nil {
		c = &opCount{}
		e.ops[op] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
	}
	return err
}

func (e *env) disk() *vfs.MemFS {
	d := vfs.NewMemFS()
	e.mu.Lock()
	e.disks = append(e.disks, d)
	e.mu.Unlock()
	return d
}

func (e *env) bucket() *cloud.MemStore {
	b := cloud.NewMemStore()
	e.mu.Lock()
	e.buckets = append(e.buckets, b)
	e.mu.Unlock()
	return b
}

// forget drops disks and buckets a finished round no longer holds.
func (e *env) forget() {
	e.mu.Lock()
	e.disks, e.buckets = nil, nil
	e.mu.Unlock()
}

// resident is the bytes the in-memory disks and buckets hold now.
func (e *env) resident() int64 {
	e.mu.Lock()
	disks := append([]*vfs.MemFS(nil), e.disks...)
	buckets := append([]*cloud.MemStore(nil), e.buckets...)
	e.mu.Unlock()
	var n int64
	for _, d := range disks {
		n += diskBytes(d)
	}
	for _, b := range buckets {
		n += bucketBytes(b)
	}
	return n + e.tr.bytes()
}

// diskBytes is the heap a disk's files occupy.
func diskBytes(d vfs.FS) int64 {
	files, err := vfs.Walk(d, "")
	if err != nil {
		return 0
	}
	var n int64
	for _, p := range files {
		if fi, err := d.Stat(p); err == nil {
			n += allocBytes(fi.Size())
		}
	}
	return n
}

// bucketBytes is the heap a bucket's objects occupy.
func bucketBytes(b *cloud.MemStore) int64 {
	infos, err := b.List(context.Background(), "")
	if err != nil {
		return 0
	}
	var n int64
	for _, in := range infos {
		n += allocBytes(in.Size)
	}
	return n
}

// sizeClasses are the Go allocator's size classes up to 32 KiB; a larger
// allocation takes whole 8 KiB pages. Disk files and bucket objects are
// byte slices made at their exact length, so this is the heap each holds.
var sizeClasses = []int64{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280,
	1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784,
	6912, 8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480,
	21760, 24576, 27264, 28672, 32768}

func allocBytes(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if n > 32768 {
		return (n + 8191) / 8192 * 8192
	}
	i := sort.Search(len(sizeClasses), func(i int) bool { return sizeClasses[i] >= n })
	return sizeClasses[i]
}

// cloudStack is the object store Ginja talks to: the trace wrapper (traced
// runs only), the metering wrapper, the latency model, the bucket.
type cloudStack struct {
	sim   *cloudsim.Store
	meter *cloud.MeteredStore
	top   cloud.ObjectStore
}

func (e *env) stack(bucket *cloud.MemStore, profile cloudsim.Profile, scale float64) *cloudStack {
	sim := cloudsim.New(bucket, cloudsim.Options{Profile: profile, TimeScale: scale, Seed: e.rng.Int63()})
	meter := cloud.NewMeteredStore(sim, cloud.AmazonS3May2017())
	return &cloudStack{sim: sim, meter: meter, top: wrapStore(meter, e.tr)}
}

// readOnly is the store recoveries and followers read the live bucket
// through: a restore must not change what it restores from, so any PUT or
// DELETE fails and is counted.
type readOnly struct {
	cloud.ObjectStore
	writes atomic.Int64
}

var errReadOnly = errors.New("drbench: recovery wrote to the bucket it restores from")

func (r *readOnly) Put(context.Context, string, []byte) error {
	r.writes.Add(1)
	return errReadOnly
}

func (r *readOnly) Delete(context.Context, string) error {
	r.writes.Add(1)
	return errReadOnly
}

// lanReader is the store every recovery and promotion reads bucket
// through: the in-region profile (the paper's Figure 7, second series) in
// real time, read-only.
func (e *env) lanReader(bucket *cloud.MemStore) *readOnly {
	return &readOnly{ObjectStore: e.stack(bucket, cloudsim.LANProfile(), 1).top}
}

// cloneBucket copies a bucket's objects, as a disaster at this instant
// would leave them.
func (e *env) cloneBucket(src *cloud.MemStore) (*cloud.MemStore, error) {
	ctx := context.Background()
	dst := e.bucket()
	infos, err := src.List(ctx, "")
	if err != nil {
		return nil, err
	}
	for _, in := range infos {
		data, err := src.Get(ctx, in.Name)
		if err != nil {
			return nil, err
		}
		if err := dst.Put(ctx, in.Name, data); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// restored is a database brought back from the cloud: the Ginja instance
// that restored it and the engine opened on top.
type restored struct {
	g   *core.Ginja
	db  *minidb.DB
	ro  *readOnly
	dur time.Duration
}

func (r *restored) close() error {
	if r == nil || r.g == nil {
		return nil
	}
	err := r.g.Close()
	if n := r.ro.writes.Load(); n > 0 && err == nil {
		err = fmt.Errorf("%w (%d writes)", errReadOnly, n)
	}
	return err
}

// dbSpec is what a restore needs to know about the protected database.
type dbSpec struct {
	params core.Params
	engine func() minidb.Engine
	probe  [2]string // table, key: the read that shows the database answers
}

// recoverCold times New → Recover onto a fresh disk → minidb.Open → one
// read, reading the bucket with the in-region profile.
func (e *env) recoverCold(bucket *cloud.MemStore, spec dbSpec) (*restored, error) {
	ro := e.lanReader(bucket)
	l := e.tr.lane()
	target := wrapFS(e.disk(), "vfs.write", l)
	_, end := e.tr.beginPhase("phase.recover")
	defer end()
	start := time.Now()
	g, err := core.New(target, ro, dbevent.NewPGProcessor(), spec.params)
	if err != nil {
		return nil, err
	}
	o := l.begin("recovery.recover")
	err = g.Recover(context.Background())
	l.end(o, 0, err != nil)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	r := &restored{g: g, ro: ro}
	if r.db, err = openTimed(l, g.FS(), spec); err != nil {
		r.close()
		return nil, err
	}
	r.dur = time.Since(start)
	return r, nil
}

// follow starts a follower on a fresh disk and waits until it holds
// everything the bucket lists.
func (e *env) follow(bucket *cloud.MemStore, spec dbSpec) (*core.Follower, *readOnly, error) {
	ro := e.lanReader(bucket)
	p := spec.params
	if p.FollowInterval == 0 {
		p.FollowInterval = 50 * time.Millisecond
	}
	f, err := core.NewFollower(e.disk(), ro, dbevent.NewPGProcessor(), p)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Start(context.Background()); err != nil {
		return nil, nil, err
	}
	return f, ro, nil
}

// promote times Follower.Promote → minidb.Open → one read.
func (e *env) promote(f *core.Follower, ro *readOnly, spec dbSpec) (*restored, error) {
	l := e.tr.lane()
	_, end := e.tr.beginPhase("phase.promote")
	defer end()
	start := time.Now()
	o := l.begin("follower.promote")
	g, err := f.Promote(context.Background())
	l.end(o, 0, err != nil)
	if err != nil {
		return nil, fmt.Errorf("promote: %w", err)
	}
	r := &restored{g: g, ro: ro}
	if r.db, err = openTimed(l, g.FS(), spec); err != nil {
		r.close()
		return nil, err
	}
	r.dur = time.Since(start)
	return r, nil
}

// restoreBoth brings the database in bucket back k times by a cold
// recovery and k times by promoting a freshly caught-up follower, checks
// every restore, and returns the median times.
func (e *env) restoreBoth(bucket *cloud.MemStore, spec dbSpec, k int, check func(*minidb.DB) error) (rto, promote float64, err error) {
	var rtos, proms []float64
	for i := 0; i < k; i++ {
		d, err := e.restoreCold(bucket, spec, check)
		if err != nil {
			return 0, 0, err
		}
		rtos = append(rtos, ms(d))
		f, ro, err := e.follow(bucket, spec)
		if err != nil {
			e.count("promotion", err)
			return 0, 0, fmt.Errorf("follower: %w", err)
		}
		if d, err = e.restorePromoted(f, ro, spec, check); err != nil {
			return 0, 0, err
		}
		proms = append(proms, ms(d))
	}
	return median(rtos), median(proms), nil
}

// restoreCold runs, checks and closes one cold recovery.
func (e *env) restoreCold(bucket *cloud.MemStore, spec dbSpec, check func(*minidb.DB) error) (time.Duration, error) {
	r, err := e.recoverCold(bucket, spec)
	if e.count("recovery", err) != nil {
		return 0, err
	}
	err = check(r.db)
	e.mu.Lock()
	e.cold = append(e.cold, r.g.Stats())
	e.mu.Unlock()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("cold recovery: %w", err)
	}
	return r.dur, nil
}

// restorePromoted promotes a caught-up follower, checks and closes it.
func (e *env) restorePromoted(f *core.Follower, ro *readOnly, spec dbSpec, check func(*minidb.DB) error) (time.Duration, error) {
	p, err := e.promote(f, ro, spec)
	if e.count("promotion", err) != nil {
		f.Close()
		return 0, err
	}
	fs := f.Stats()
	e.mu.Lock()
	e.promoted = append(e.promoted, fs.AppliedWALObjects+fs.AppliedDBObjects)
	e.mu.Unlock()
	err = check(p.db)
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("promoted follower: %w", err)
	}
	return p.dur, nil
}

func openTimed(l *lane, fsys vfs.FS, spec dbSpec) (*minidb.DB, error) {
	o := l.begin("minidb.open")
	db, err := minidb.Open(fsys, spec.engine(), minidb.Options{})
	l.end(o, 0, err != nil)
	if err != nil {
		return nil, fmt.Errorf("open restored database: %w", err)
	}
	if _, err := db.Get(spec.probe[0], []byte(spec.probe[1])); err != nil {
		return nil, fmt.Errorf("first read of restored database: %w", err)
	}
	return db, nil
}

// readTable returns every key/value of a table.
func readTable(db *minidb.DB, table string) (map[string]string, error) {
	kvs, err := db.Scan(table, "")
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		out[kv.Key] = string(kv.Value)
	}
	return out, nil
}

// update runs one transaction as a minidb.update span on lane l.
func update(l *lane, db *minidb.DB, fn func(tx *minidb.Txn) error) error {
	o := l.begin("minidb.update")
	err := db.Update(fn)
	l.end(o, 0, err != nil)
	return err
}

// value returns n bytes of hex text: random, about 2× compressible.
func value(r *rand.Rand, n int) []byte {
	raw := make([]byte, (n+1)/2)
	r.Read(raw)
	out := make([]byte, hex.EncodedLen(len(raw)))
	hex.Encode(out, raw)
	return out[:n]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine's CPU time counters from /proc/stat: time
// stolen by the hypervisor and the total. Elsewhere it reads zeros.
func hostTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 {
			continue
		}
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of the machine's CPU time the hypervisor stole
// since the reading (s0, t0).
func stealShare(s0, t0 int64) float64 {
	s1, t1 := hostTicks()
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// runtimeStats reads the Go runtime counters the go.* metrics use.
type runtimeStats struct {
	allocs, allocBytes, gcCycles, liveHeap uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	get := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeStats{allocs: get(0), allocBytes: get(1), gcCycles: get(2), liveHeap: get(3)}
}

// heapWatch tracks the peak live heap, as marked by each garbage
// collection, less the bytes the in-memory disks and buckets hold.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func (e *env) watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		last := readRuntime().gcCycles
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			rs := readRuntime()
			if rs.gcCycles == last {
				continue
			}
			last = rs.gcCycles
			if own := int64(rs.liveHeap) - e.resident(); own > h.peak {
				h.peak = own
			}
		}
	}()
	return h
}

// end stops the watch and returns the peak in MiB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// heapMark reads the live heap for heap_kb_per_tenant, adding the time
// it takes to *paused so set-up times leave it out. Only the first round of
// a run measures: instances of an earlier round can still be reachable (a
// pending timer, say) and be freed between the two marks.
func (e *env) heapMark(first bool, paused *time.Duration) int64 {
	if !first {
		return 0
	}
	t := time.Now()
	h := e.liveHeap()
	*paused += time.Since(t)
	return h
}

// liveHeap forces two collections and returns the live heap less the
// disks and buckets: the retained footprint, without pool scratch.
func (e *env) liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc) - e.resident()
}

// sampler records f() every interval until stopped.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []time.Duration
}

func sample(every time.Duration, f func() time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.samples = append(s.samples, f())
			}
		}
	}()
	return s
}

func (s *sampler) end() []time.Duration {
	close(s.stop)
	<-s.done
	return s.samples
}

// bill prices a metered phase as a month: its operations scaled from the
// phase length to 30 days, plus a month of storage at the bucket's
// occupancy.
func bill(c cloud.OpCounts, phase time.Duration) float64 {
	p := cloud.AmazonS3May2017()
	scale := float64(30*24*time.Hour) / float64(phase)
	ops := p.UploadCost(c.Puts, c.BytesUp) + p.DownloadCost(c.Gets, c.BytesDown) +
		float64(c.Lists)*p.PerLIST + float64(c.Deletes)*p.PerDELETE
	return ops*scale + p.StorageCost(c.StoredBytes)
}

// quantile returns the q-quantile of ds (nearest rank).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histogram finds a histogram series in a registry snapshot.
func histogram(reg *obs.Registry, name, label, value string) (obs.MetricSnapshot, bool) {
	if reg == nil {
		return obs.MetricSnapshot{}, false
	}
	for _, m := range reg.Snapshot() {
		if m.Name == name && (label == "" || m.Labels[label] == value) {
			return m, true
		}
	}
	return obs.MetricSnapshot{}, false
}

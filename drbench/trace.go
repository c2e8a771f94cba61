package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// span is one interval recorded at a wrapped layer boundary.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	// Trace ties a span to one commit or one recovery (0 = neither).
	Trace int64 `json:"trace"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Bytes int64 `json:"bytes,omitempty"`
	Err   bool  `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced run in memory until the run ends.
// Only traced runs create one; the untraced run installs no wrapper and
// records nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	phase atomic.Int64 // span cloud operations are parented to

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// bytes is the memory the recorded spans hold, which a traced run's heap
// figures leave out.
func (t *tracer) bytes() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(cap(t.spans)) * int64(unsafe.Sizeof(span{}))
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// lane is the span nesting of one goroutine's calls: a span begun on a
// lane is the parent of every span begun on it before it ends. Each load
// goroutine, and each recovery, has its own lane. A nil lane (untraced
// run) records nothing.
type lane struct {
	tr *tracer

	mu    sync.Mutex
	stack []int64
	trace int64
}

func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	return &lane{tr: t}
}

type openSpan struct {
	name   string
	id     int64
	parent int64
	trace  int64
	start  int64
}

// begin opens a span; a root span (empty stack) starts a new trace id and
// is parented to the current phase.
func (l *lane) begin(name string) openSpan {
	if l == nil {
		return openSpan{}
	}
	id := l.tr.next.Add(1)
	l.mu.Lock()
	parent := l.tr.phase.Load()
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	} else {
		l.trace = id
	}
	l.stack = append(l.stack, id)
	tr := l.trace
	l.mu.Unlock()
	return openSpan{name: name, id: id, parent: parent, trace: tr, start: l.tr.now()}
}

func (l *lane) end(o openSpan, bytes int64, failed bool) {
	if l == nil {
		return
	}
	end := l.tr.now()
	l.mu.Lock()
	if n := len(l.stack); n > 0 && l.stack[n-1] == o.id {
		l.stack = l.stack[:n-1]
	}
	l.mu.Unlock()
	l.tr.add(span{Name: o.name, ID: o.id, Parent: o.parent, Trace: o.trace,
		Start: o.start, End: end, Bytes: bytes, Err: failed})
}

// phase opens a span that cloud operations issued while it is open are
// parented to (Ginja's background uploads cannot be tied to one commit
// from outside the program).
func (t *tracer) beginPhase(name string) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.next.Add(1)
	prev := t.phase.Swap(id)
	start := t.now()
	return id, func() {
		t.phase.Store(prev)
		t.add(span{Name: name, ID: id, Parent: prev, Start: start, End: t.now()})
	}
}

// traceFS records a span named name around every WriteAt on files opened
// through it.
type traceFS struct {
	vfs.FS
	name string
	lane *lane
}

// wrapFS returns fsys unchanged on an untraced run.
func wrapFS(fsys vfs.FS, name string, l *lane) vfs.FS {
	if l == nil {
		return fsys
	}
	return &traceFS{FS: fsys, name: name, lane: l}
}

func (f *traceFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: file, fs: f}, nil
}

type traceFile struct {
	vfs.File
	fs *traceFS
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	o := f.fs.lane.begin(f.fs.name)
	n, err := f.File.WriteAt(p, off)
	f.fs.lane.end(o, int64(n), err != nil)
	return n, err
}

// traceStore records cloud.put/get/list/delete spans, parented to the
// open phase, between Ginja and the latency model.
type traceStore struct {
	inner cloud.ObjectStore
	tr    *tracer
}

func wrapStore(s cloud.ObjectStore, t *tracer) cloud.ObjectStore {
	if t == nil {
		return s
	}
	return &traceStore{inner: s, tr: t}
}

func (s *traceStore) record(name string, start int64, bytes int64, err error) {
	s.tr.add(span{Name: name, ID: s.tr.next.Add(1), Parent: s.tr.phase.Load(),
		Start: start, End: s.tr.now(), Bytes: bytes, Err: err != nil})
}

func (s *traceStore) Put(ctx context.Context, name string, data []byte) error {
	start := s.tr.now()
	err := s.inner.Put(ctx, name, data)
	s.record("cloud.put", start, int64(len(data)), err)
	return err
}

func (s *traceStore) Get(ctx context.Context, name string) ([]byte, error) {
	start := s.tr.now()
	data, err := s.inner.Get(ctx, name)
	s.record("cloud.get", start, int64(len(data)), err)
	return data, err
}

func (s *traceStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	start := s.tr.now()
	infos, err := s.inner.List(ctx, prefix)
	s.record("cloud.list", start, 0, err)
	return infos, err
}

func (s *traceStore) Delete(ctx context.Context, name string) error {
	start := s.tr.now()
	err := s.inner.Delete(ctx, name)
	s.record("cloud.delete", start, 0, err)
	return err
}

// spanIndex answers the per-layer questions over a finished trace.
type spanIndex struct {
	spans    []span
	byID     map[int64]int
	children map[int64][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, byID: make(map[int64]int, len(spans)),
		children: make(map[int64][]int)}
	for i, s := range spans {
		ix.byID[s.ID] = i
		ix.children[s.Parent] = append(ix.children[s.Parent], i)
	}
	return ix
}

// under reports whether span i descends from span root.
func (ix *spanIndex) under(i int, root int64) bool {
	for p := ix.spans[i].Parent; p != 0; {
		if p == root {
			return true
		}
		j, ok := ix.byID[p]
		if !ok {
			return false
		}
		p = ix.spans[j].Parent
	}
	return false
}

// agg sums the spans named name that descend from root (0 = anywhere):
// count, total duration, self time (duration less direct children) and
// bytes.
type agg struct {
	n     int64
	total time.Duration
	self  time.Duration
	bytes int64
	durs  []time.Duration
}

func (ix *spanIndex) sum(name string, root int64) agg {
	var a agg
	for i, s := range ix.spans {
		if s.Name != name || (root != 0 && !ix.under(i, root)) {
			continue
		}
		d := s.dur()
		self := d
		for _, c := range ix.children[s.ID] {
			self -= ix.spans[c].dur()
		}
		a.n++
		a.total += d
		a.self += self
		a.bytes += s.Bytes
		a.durs = append(a.durs, d)
	}
	return a
}

// ids returns the ids of the spans named name.
func (ix *spanIndex) ids(name string) []int64 {
	var out []int64
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s.ID)
		}
	}
	return out
}

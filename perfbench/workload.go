package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/page"
)

// maintEvery is how many operations pass between inline collector and
// compaction passes.
const maintEvery = 500

// tally is what one load goroutine did in a window.
type tally struct {
	ops, updates, reads int
	commitLat, readLat  []time.Duration
	// done holds each operation's completion time from the window's
	// start.
	done []time.Duration
	// pagesCommitted counts leaf pages written by committed updates.
	pagesCommitted int
	// conflicts counts commit attempts refused; unexplained counts the
	// refused ones whose read set meets no write of an update committed
	// since their version was opened.
	conflicts, unexplained int
	// failed counts operations that returned an error (at most one: the
	// goroutine stops at the first).
	failed int
	// start is the window's start, for done.
	start time.Time
}

// finish records one completed operation.
func (t *tally) finish() {
	t.ops++
	t.done = append(t.done, time.Since(t.start))
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.updates += o.updates
	t.reads += o.reads
	t.commitLat = append(t.commitLat, o.commitLat...)
	t.readLat = append(t.readLat, o.readLat...)
	t.done = append(t.done, o.done...)
	t.pagesCommitted += o.pagesCommitted
	t.conflicts += o.conflicts
	t.unexplained += o.unexplained
	t.failed += o.failed
}

// load is one workload bound to a deployment: its files, clients, model
// and per-goroutine random sources, all derived from the seed.
type load struct {
	d          *deployment
	m          *model
	caps       []capability.Capability
	clients    []*client.Client
	goroutines int
	rngs       []*rand.Rand
	stamps     []uint64 // per goroutine: the last update stamp issued
	// issued counts the contended workload's updates.
	issued  int
	round   func(g int, t *tally) error
	opsDone atomic.Int64
	// heapMark, when positive, is the operation count at which run
	// reads the live heap into heap.
	heapMark int64
	heap     uint64
}

type workloadSpec struct {
	files, pages int
	counters     bool
	goroutines   int
}

var specs = map[string]workloadSpec{
	"commit-spread":    {files: 512, pages: 32, goroutines: 2},
	"read-mostly":      {files: 1024, pages: 16, goroutines: 1},
	"commit-contended": {files: 4, pages: 16, counters: true, goroutines: 1},
}

// newLoad builds workload name over d and populates its files.
func newLoad(name string, d *deployment, seed int64) (*load, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	l := &load{d: d, goroutines: sp.goroutines}
	if sp.counters {
		l.m = newCounterModel(seed, sp.files, sp.pages)
	} else {
		l.m = newStampModel(seed, sp.files, sp.pages)
	}
	// commit-spread gives each goroutine a client on its own server; the
	// other two route both clients through server 0.
	for c := 0; c < 2; c++ {
		prefer := 0
		if name == "commit-spread" {
			prefer = c
		}
		l.clients = append(l.clients, d.client(prefer))
	}
	for g := 0; g < sp.goroutines; g++ {
		l.rngs = append(l.rngs, rand.New(rand.NewSource(seed*1000003+int64(g)+1)))
	}
	l.stamps = make([]uint64, sp.goroutines)
	if err := l.populate(sp); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	switch name {
	case "commit-spread":
		l.round = l.spreadRound
	case "read-mostly":
		zipf := rand.NewZipf(l.rngs[0], 1.1, 1, uint64(sp.files-1))
		l.round = func(g int, t *tally) error { return l.readMostlyRound(zipf, t) }
	case "commit-contended":
		l.round = l.contendedRound
	}
	return l, nil
}

// populateWorkers is how many clients create the files in parallel, half
// on each server. A few keep both CPUs of a small host busy; 64 made
// set-up time swing by a third from one set-up to the next.
const populateWorkers = 8

// populate creates every file, with its leaf pages at their initial
// model contents, through populateWorkers clients in parallel, then waits
// until both file-table replicas know every file.
func (l *load) populate(sp workloadSpec) error {
	l.caps = make([]capability.Capability, sp.files)
	var wg sync.WaitGroup
	errs := make([]error, populateWorkers)
	for w := 0; w < populateWorkers; w++ {
		cl := l.d.client(w % 2)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, payloadSize)
			for f := w; f < sp.files; f += populateWorkers {
				fc, err := cl.CreateFile(nil)
				if err != nil {
					errs[w] = err
					return
				}
				v, err := cl.Update(fc, client.UpdateOpts{})
				if err != nil {
					errs[w] = err
					return
				}
				for p := 0; p < sp.pages; p++ {
					l.m.expectInto(buf, f, p)
					if err := v.Insert(page.RootPath, p, buf); err != nil {
						errs[w] = err
						return
					}
				}
				if err := v.Commit(); err != nil {
					errs[w] = err
					return
				}
				l.caps[f] = fc
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, m := range l.d.machines {
		if !m.rep.Flush(10 * time.Second) {
			return errors.New("file table replication did not drain")
		}
	}
	return nil
}

// run drives the workload: rounds until the deadline when dur > 0,
// otherwise exactly rounds rounds per goroutine. Collector and
// compaction passes run inline each time the operation count crosses a
// multiple of maintEvery, and the live heap is read when it crosses
// heapMark.
func (l *load) run(dur time.Duration, rounds int) (tally, time.Duration, error) {
	var wg sync.WaitGroup
	var stop atomic.Bool
	tallies := make([]tally, l.goroutines)
	errs := make([]error, l.goroutines)
	start := time.Now()
	for g := 0; g < l.goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t := &tallies[g]
			t.start = start
			for r := 0; ; r++ {
				if stop.Load() || (dur > 0 && time.Since(start) >= dur) || (dur <= 0 && r >= rounds) {
					return
				}
				before := t.ops
				if err := l.round(g, t); err != nil {
					if !errors.As(err, new(errCheck)) {
						t.failed++
					}
					errs[g] = err
					stop.Store(true)
					return
				}
				n := int64(t.ops - before)
				after := l.opsDone.Add(n)
				if after/maintEvery != (after-n)/maintEvery {
					if err := l.d.maintain(); err != nil {
						errs[g] = err
						stop.Store(true)
						return
					}
				}
				if m := l.heapMark; m > 0 && after >= m && after-n < m {
					l.heap = liveHeap()
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total tally
	for _, t := range tallies {
		total.add(t)
	}
	return total, elapsed, errors.Join(errs...)
}

// readTxn opens a version of file f, reads the listed pages, checks each
// against the model and aborts.
func (l *load) readTxn(cl *client.Client, f int, pages []int, t *tally) error {
	start := time.Now()
	v, err := cl.Update(l.caps[f], client.UpdateOpts{})
	if err != nil {
		return fmt.Errorf("open for read: %w", err)
	}
	for _, p := range pages {
		data, _, err := v.Read(page.Path{p})
		if err != nil {
			return fmt.Errorf("read file %d page %d: %w", f, p, err)
		}
		if err := l.m.check(f, p, data); err != nil {
			return errCheck{err}
		}
	}
	if err := v.Abort(); err != nil {
		return fmt.Errorf("abort: %w", err)
	}
	t.readLat = append(t.readLat, time.Since(start))
	t.reads++
	t.finish()
	return nil
}

// writeTxn opens a version of file f, writes each listed page with the
// stamp's payload and commits. No other update touches f meanwhile, so a
// conflict is a fault.
func (l *load) writeTxn(cl *client.Client, f int, pages []int, stamp uint64, buf []byte, t *tally) error {
	start := time.Now()
	v, err := cl.Update(l.caps[f], client.UpdateOpts{})
	if err != nil {
		return fmt.Errorf("open for update: %w", err)
	}
	for _, p := range pages {
		fill(buf, l.m.seed, f, p, stamp)
		if err := v.Write(page.Path{p}, buf); err != nil {
			return fmt.Errorf("write file %d page %d: %w", f, p, err)
		}
	}
	if err := v.Commit(); err != nil {
		return fmt.Errorf("commit file %d: %w", f, err)
	}
	for _, p := range pages {
		l.m.commitStamp(f, p, stamp)
	}
	t.commitLat = append(t.commitLat, time.Since(start))
	t.updates++
	t.finish()
	t.pagesCommitted += len(pages)
	return nil
}

// errCheck marks a model mismatch, as opposed to an operation failure.
type errCheck struct{ error }

func (e errCheck) Unwrap() error { return e.error }

// spreadRound is 8 operations of goroutine g on its own files (f%2 == g)
// through its own server: 7 updates of 8 leaf pages, and one read
// transaction of 8 pages at a seeded position.
func (l *load) spreadRound(g int, t *tally) error {
	rng := l.rngs[g]
	files, pages := l.m.files(), l.m.pages
	readAt := rng.Intn(8)
	buf := make([]byte, payloadSize)
	for i := 0; i < 8; i++ {
		f := 2*rng.Intn(files/2) + g
		ps := rng.Perm(pages)[:8]
		if i == readAt {
			if err := l.readTxn(l.clients[g], f, ps, t); err != nil {
				return err
			}
			continue
		}
		l.stamps[g]++
		stamp := uint64(g+1)<<40 | l.stamps[g]
		if err := l.writeTxn(l.clients[g], f, ps, stamp, buf, t); err != nil {
			return err
		}
	}
	return nil
}

// readMostlyRound is 10 operations over Zipf-chosen files, alternating
// the two clients: 9 read transactions of 8 pages and, at a seeded
// position, one update of a single page.
func (l *load) readMostlyRound(zipf *rand.Zipf, t *tally) error {
	rng := l.rngs[0]
	pages := l.m.pages
	writeAt := rng.Intn(10)
	buf := make([]byte, payloadSize)
	for i := 0; i < 10; i++ {
		f := int(zipf.Uint64())
		cl := l.clients[t.ops%2]
		if i == writeAt {
			l.stamps[0]++
			stamp := l.stamps[0]
			if err := l.writeTxn(cl, f, []int{rng.Intn(pages)}, stamp, buf, t); err != nil {
				return err
			}
			continue
		}
		if err := l.readTxn(cl, f, rng.Perm(pages)[:8], t); err != nil {
			return err
		}
	}
	return nil
}

// contended is one update of the contended workload.
type contended struct {
	slot   int
	f      int
	pages  []int // read set; the first two are incremented
	opened time.Time
	v      *client.Version
}

// contendedRound keeps 4 updates open at once, 2 per client, both clients
// routed through server 0, on the hot files. Each update reads 4 seeded
// pages and increments the counters of the first 2. The open updates
// commit in a seeded order; those refused are all reopened on fresh
// versions, redone and committed again, until every one has committed.
// A read transaction of 4 pages closes the round.
func (l *load) contendedRound(_ int, t *tally) error {
	rng := l.rngs[0]
	files, pages := l.m.files(), l.m.pages
	pending := make([]*contended, 4)
	for s := range pending {
		pending[s] = &contended{slot: s, f: rng.Intn(files), pages: rng.Perm(pages)[:4]}
	}
	l.issued += len(pending)
	buf := make([]byte, payloadSize)
	for len(pending) > 0 {
		for _, u := range pending {
			if u.opened.IsZero() {
				u.opened = time.Now()
			}
			if err := l.redo(u, buf); err != nil {
				return err
			}
		}
		// committed lists, per file, the pages written by updates that
		// committed in this pass, for explaining the refusals.
		committed := map[int]map[int]bool{}
		var refused []*contended
		for _, i := range rng.Perm(len(pending)) {
			u := pending[i]
			err := u.v.Commit()
			if errors.Is(err, client.ErrConflict) {
				t.conflicts++
				explained := false
				for _, p := range u.pages {
					if committed[u.f][p] {
						explained = true
					}
				}
				if !explained {
					t.unexplained++
				}
				refused = append(refused, u)
				continue
			}
			if err != nil {
				return fmt.Errorf("commit file %d: %w", u.f, err)
			}
			if committed[u.f] == nil {
				committed[u.f] = map[int]bool{}
			}
			for _, p := range u.pages[:2] {
				l.m.commitIncrement(u.f, p)
				committed[u.f][p] = true
			}
			t.commitLat = append(t.commitLat, time.Since(u.opened))
			t.updates++
			t.finish()
			t.pagesCommitted += 2
		}
		pending = refused
	}
	return l.readTxn(l.clients[t.ops%2], rng.Intn(files), rng.Perm(pages)[:4], t)
}

// redo opens a fresh version for u, reads its pages, checks them against
// the model and writes the incremented counters.
func (l *load) redo(u *contended, buf []byte) error {
	v, err := l.clients[u.slot%2].Update(l.caps[u.f], client.UpdateOpts{})
	if err != nil {
		return fmt.Errorf("open for update: %w", err)
	}
	u.v = v
	for i, p := range u.pages {
		data, _, err := v.Read(page.Path{p})
		if err != nil {
			return fmt.Errorf("read file %d page %d: %w", u.f, p, err)
		}
		// No update has committed since this version opened, so it
		// sees the model's current state.
		if err := l.m.check(u.f, p, data); err != nil {
			return errCheck{err}
		}
		if i < 2 {
			copy(buf, data)
			binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(data)+1)
			if err := v.Write(page.Path{p}, buf); err != nil {
				return fmt.Errorf("write file %d page %d: %w", u.f, p, err)
			}
		}
	}
	return nil
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

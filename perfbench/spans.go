package main

import (
	"sort"
	"sync"
	"time"
)

// Span layers, outermost first. Each layer's spans are recorded by the
// benchmark's own wrapper at that layer's public boundary; the program's
// tracer stays off.
const (
	layerClient = iota // rpc.Transactor under a client (inst: target server)
	layerServer        // a file server's rpc handler (inst: server)
	layerStore         // the block.Store handed to a server (inst: server)
	layerPair          // one §4 mirrored pair (inst: pair)
	layerSeg           // one segment log (inst: segstore; its pair is inst/2)
	numLayers
)

// Block operation kinds, recorded in span.op for the three block layers.
const (
	opRead  uint16 = iota
	opWrite        // overwrite of allocated blocks
	opAlloc        // Alloc, AllocMulti and Claim: blocks written at fresh numbers
	opFree
	opLock
	opOther
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's base. n is the call's size: blocks for block
// layers, wire bytes for client calls.
type span struct {
	start, end int64
	n          uint32
	op         uint16
	layer      uint8
	inst       uint8
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects spans from every wrapper of one deployment.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops every span recorded so far (warm-up and set-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// parentKey says which parent-layer instance may contain a span: a
// handler runs inside a client call to the same server, a server's store
// calls inside that server's handler, a segstore's calls inside its own
// pair's calls. Pair calls come from the one shard facade, shared by both
// servers, so any store span may be their parent.
func parentKey(s span) (layer uint8, inst int) {
	switch s.layer {
	case layerServer:
		return layerClient, int(s.inst)
	case layerStore:
		return layerServer, int(s.inst)
	case layerPair:
		return layerStore, 0
	case layerSeg:
		return layerPair, int(s.inst) / 2
	}
	return 0, 0
}

// selfTimes returns, for every span, its duration minus the union of its
// children's intervals. A child belongs to the latest-starting parent
// span of the matching layer and instance whose interval contains it.
// Children of one parent may overlap (shard legs and mirror halves run
// concurrently), so their union, not their sum, is subtracted.
func selfTimes(spans []span) []int64 {
	type group struct{ idx []int }
	parents := map[[2]int]*group{}
	for i, s := range spans {
		k := [2]int{int(s.layer), int(s.inst)}
		if s.layer == layerStore {
			k[1] = 0 // pair spans may sit under any server's store calls
		}
		g := parents[k]
		if g == nil {
			g = &group{}
			parents[k] = g
		}
		g.idx = append(g.idx, i)
	}
	for _, g := range parents {
		sort.Slice(g.idx, func(a, b int) bool { return spans[g.idx[a]].start < spans[g.idx[b]].start })
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.layer == layerClient {
			continue
		}
		pl, inst := parentKey(s)
		g := parents[[2]int{int(pl), inst}]
		if g == nil {
			continue
		}
		// Last parent starting at or before the child, then walk back
		// over concurrent parents to the first that contains it. Calls
		// made outside any parent (the collector's, say) find none.
		j := sort.Search(len(g.idx), func(k int) bool { return spans[g.idx[k]].start > s.start }) - 1
		for stop := j - maxConcurrent; j >= 0 && j > stop; j-- {
			p := spans[g.idx[j]]
			if p.end >= s.end {
				children[g.idx[j]] = append(children[g.idx[j]], [2]int64{s.start, s.end})
				break
			}
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionLen(children[i], s.start, s.end)
	}
	return out
}

// maxConcurrent bounds the backward search for a containing parent. At
// most two load goroutines, two shard legs and two mirror halves are in
// flight at once, so a containing parent is never this many spans back.
const maxConcurrent = 64

// unionLen is the length of the union of the intervals, clipped to
// [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

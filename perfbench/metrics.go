package main

import (
	"runtime"
	"time"

	"repro/internal/server"
)

// counters is a snapshot of the program's own counters, summed over
// both clients, both servers, both table replicas and all four segment
// logs.
type counters struct {
	transactions, fetched       uint64
	hits, misses, validations   uint64
	commits, fast, passes       uint64
	conflicts, compared, merged uint64
	pushes, frames              uint64
	batches, records            uint64
	mallocs, allocBytes         uint64
	numGC                       uint32
}

func snapCounters(d *deployment, l *load) counters {
	var c counters
	for _, cl := range l.clients {
		s := cl.Stats()
		c.transactions += s.Transactions
		c.fetched += s.BytesFetched
		cs := cl.Cache.Stats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.validations += cs.Validations
	}
	for _, m := range d.machines {
		o := m.srv.OCCStats()
		c.commits += o.Commits.Load()
		c.fast += o.FastCommits.Load()
		c.passes += o.Validations.Load()
		c.conflicts += o.Conflicts.Load()
		c.compared += o.PagesCompared.Load()
		c.merged += o.Merged.Load()
		f := m.rep.StatsSnapshot()
		c.pushes += f.Pushes
		c.frames += f.Batches
	}
	for _, s := range d.segs {
		st := s.Stats()
		c.batches += st.Batches
		c.records += st.BatchRecords
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return c
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric of a traced run from its
// tally, its spans and the counter deltas across it.
func layerMetrics(rep *report, t tally, spans []span, b, a counters, d *deployment) {
	ops := float64(t.ops)
	commits := float64(t.updates)
	self := selfTimes(spans)
	d.maintMu.Lock()
	gcTimes, gcFreed, compacts := d.gcTimes, d.gcFreed, d.compacts
	d.maintMu.Unlock()

	// Per-layer sums over the spans.
	type agg struct {
		calls, n  float64
		self, dur float64 // nanoseconds
	}
	var layer [numLayers]agg
	byCmd := map[uint16][]time.Duration{}
	var pairWrite, pairRead, segWrite, segRead, storeData agg
	var allocated, freed float64
	for i, s := range spans {
		g := &layer[s.layer]
		g.calls++
		g.n += float64(s.n)
		g.self += float64(self[i])
		g.dur += float64(s.dur())
		write := s.op == opWrite || s.op == opAlloc
		var k *agg
		switch s.layer {
		case layerServer:
			byCmd[s.op] = append(byCmd[s.op], time.Duration(s.dur()))
		case layerStore:
			if s.op == opOther || s.op == opLock {
				break
			}
			storeData.calls++
			storeData.n += float64(s.n)
			switch s.op {
			case opAlloc:
				allocated += float64(s.n)
			case opFree:
				freed += float64(s.n)
			}
		case layerPair:
			if s.op == opRead {
				k = &pairRead
			} else if write {
				k = &pairWrite
			}
		case layerSeg:
			if s.op == opRead {
				k = &segRead
			} else if write {
				k = &segWrite
			}
		}
		if k != nil {
			k.calls++
			k.self += float64(self[i])
			k.dur += float64(s.dur())
		}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	p50us := func(cmd uint32) float64 {
		return float64(percentile(byCmd[uint16(cmd)], 0.5)) / 1e3
	}

	rep.set("client.rpcs_per_op", "count", ratio(float64(a.transactions-b.transactions), ops))
	rep.set("client.kb_fetched_per_op", "KiB", ratio(float64(a.fetched-b.fetched)/1024, ops))
	rep.set("cache.hit_ratio", "ratio", ratio(float64(a.hits-b.hits), float64(a.hits-b.hits+a.misses-b.misses)))
	rep.set("cache.validations_per_op", "count", ratio(float64(a.validations-b.validations), ops))
	rep.set("rpc.self_us_per_call", "us", us(ratio(layer[layerClient].self, layer[layerClient].calls)))
	rep.set("rpc.kb_per_op", "KiB", ratio(layer[layerClient].n/1024, ops))
	rep.set("server.self_us_per_call", "us", us(ratio(layer[layerServer].self, layer[layerServer].calls)))
	rep.set("server.open_us", "us", p50us(server.CmdCreateVersion))
	rep.set("server.write_us", "us", p50us(server.CmdWritePage))
	rep.set("server.commit_us", "us", p50us(server.CmdCommit))
	rep.set("server.read_us", "us", p50us(server.CmdReadPage))
	occCommits := float64(a.commits - b.commits)
	rep.set("occ.commit_yield", "ratio", ratio(occCommits, occCommits+float64(a.conflicts-b.conflicts)))
	rep.set("occ.fast_commit_ratio", "ratio", ratio(float64(a.fast-b.fast), occCommits))
	rep.set("occ.pages_compared_per_validation", "count", ratio(float64(a.compared-b.compared), float64(a.passes-b.passes)))
	rep.set("occ.merged_per_commit", "count", ratio(float64(a.merged-b.merged), occCommits))
	rep.set("occ.unexplained_conflicts", "count", float64(t.unexplained))
	rep.set("version.blocks_alloc_per_commit", "count", ratio(allocated, commits))
	rep.set("version.blocks_freed_per_op", "count", ratio(freed, ops))
	rep.set("ftab.updates_per_frame", "count", ratio(float64(a.pushes-b.pushes), float64(a.frames-b.frames)))
	var gcMs []float64
	var freedSum float64
	for i, g := range gcTimes {
		gcMs = append(gcMs, ms64(g))
		freedSum += float64(gcFreed[i])
	}
	rep.set("gc.collect_ms", "ms", median(gcMs))
	rep.set("gc.blocks_freed_per_collect", "count", ratio(freedSum, float64(len(gcTimes))))
	rep.set("shard.blocks_per_call", "count", ratio(storeData.n, storeData.calls))
	rep.set("shard.self_us_per_call", "us", us(ratio(layer[layerStore].self, layer[layerStore].calls)))
	rep.set("stable.write_self_us", "us", us(ratio(pairWrite.self, pairWrite.calls)))
	rep.set("stable.read_self_us", "us", us(ratio(pairRead.self, pairRead.calls)))
	rep.set("segstore.write_us_per_call", "us", us(ratio(segWrite.dur, segWrite.calls)))
	rep.set("segstore.read_us_per_call", "us", us(ratio(segRead.dur, segRead.calls)))
	rep.set("segstore.batches_per_commit", "count", ratio(float64(a.batches-b.batches), commits))
	rep.set("segstore.records_per_batch", "count", ratio(float64(a.records-b.records), float64(a.batches-b.batches)))
	rep.set("segstore.write_amp", "ratio", ratio(float64(a.records-b.records)*(recordHeader+blockSize),
		float64(t.pagesCommitted*payloadSize)))
	var compactMs []float64
	for _, c := range compacts {
		compactMs = append(compactMs, ms64(c))
	}
	rep.set("segstore.compact_ms", "ms", median(compactMs))
	rep.set("runtime.allocs_per_op", "count", ratio(float64(a.mallocs-b.mallocs), ops))
	rep.set("runtime.alloc_kb_per_op", "KiB", ratio(float64(a.allocBytes-b.allocBytes)/1024, ops))
	rep.set("runtime.gc_per_kop", "count", ratio(float64(a.numGC-b.numGC)*1000, ops))
}

// recordHeader is the segment log's fixed per-record header; every
// record carries a whole block after it.
const recordHeader = 32

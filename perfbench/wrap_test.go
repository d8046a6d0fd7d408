package main

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/segstore"
)

// TestWrapperKeepsInterfaceSets checks that the timing wrapper over each
// store of the deployment implements exactly the optional interfaces its
// target does, and refuses a target it could not match.
func TestWrapperKeepsInterfaceSets(t *testing.T) {
	segs := openTestSegs(t)
	pairs, sh, _, err := buildTier(segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	for _, target := range []block.Store{segs[0], pairs[0], sh} {
		w, err := wrapStore(target, rec, layerStore, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionalSet(w), optionalSet(target); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: wrapper implements %v, target %v", target, got, want)
		}
	}
	// A store with only the base interface must be refused: a wrapper
	// over it would claim interfaces it lacks.
	if _, err := wrapStore(bareStore{block.NewServer(disk.MustNew(disk.Geometry{Blocks: 16, BlockSize: 64}))}, rec, layerSeg, 0); err == nil {
		t.Error("wrapper accepted a store lacking the optional interfaces")
	}
}

// bareStore hides every optional interface of the store it embeds.
type bareStore struct{ block.Store }

// TestWrappedStackSameCounts runs one fixed seeded sequence of block
// operations through a bare block tier and through a fully wrapped one:
// the segment logs must count the same operations and append the same
// records, so the traced run measures the same program.
func TestWrappedStackSameCounts(t *testing.T) {
	bare := runSequence(t, nil)
	wrapped := runSequence(t, newRecorder())
	if bare != wrapped {
		t.Fatalf("segment log counts differ:\nbare    %+v\nwrapped %+v", bare, wrapped)
	}
	if bare.Allocs == 0 || bare.Reads == 0 || bare.Writes == 0 || bare.Frees == 0 {
		t.Fatalf("sequence exercised too little: %+v", bare)
	}
}

// opCounts is the part of segstore.Stats that does not depend on timing,
// summed over the four logs (the shard facade places single allocations
// at random, so the split between pairs varies).
type opCounts struct {
	Allocs, Frees, Reads, Writes, Locks, Unlocks, LockConflicts, Records uint64
}

func runSequence(t *testing.T, rec *recorder) opCounts {
	t.Helper()
	segs := openTestSegs(t)
	_, _, stores, err := buildTier(segs, rec)
	if err != nil {
		t.Fatal(err)
	}
	st := stores[0]
	ms := st.(block.MultiStore)
	rng := rand.New(rand.NewSource(42))
	payload := func() []byte {
		b := make([]byte, 1+rng.Intn(blockSize))
		rng.Read(b)
		return b
	}
	var live []block.Num
	for i := 0; i < 300; i++ {
		switch k := rng.Intn(8); {
		case k == 0 || len(live) < 4:
			data := make([][]byte, 1+rng.Intn(6))
			for j := range data {
				data[j] = payload()
			}
			ns, err := ms.AllocMulti(1, data)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, ns...)
		case k == 1:
			n, err := st.Alloc(1, payload())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, n)
		case k == 2:
			if _, err := ms.ReadMulti(1, live[:1+rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		case k == 3:
			if _, err := st.Read(1, live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		case k == 4:
			ns := live[:1+rng.Intn(min(4, len(live)))]
			data := make([][]byte, len(ns))
			for j := range data {
				data[j] = payload()
			}
			if err := ms.WriteMulti(1, ns, data); err != nil {
				t.Fatal(err)
			}
		case k == 5:
			n := live[rng.Intn(len(live))]
			if err := st.Lock(1, n); err != nil {
				t.Fatal(err)
			}
			if err := st.Unlock(1, n); err != nil {
				t.Fatal(err)
			}
		case k == 6:
			i := rng.Intn(len(live))
			if err := st.Free(1, live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			cut := len(live) - 1 - rng.Intn(min(3, len(live)-1))
			if err := ms.FreeMulti(1, live[cut:]); err != nil {
				t.Fatal(err)
			}
			live = live[:cut]
		}
	}
	if rec != nil && len(rec.snapshot()) == 0 {
		t.Fatal("wrapped tier recorded no spans")
	}
	var c opCounts
	for _, s := range segs {
		x := s.Stats()
		c.Allocs += x.Allocs
		c.Frees += x.Frees
		c.Reads += x.Reads
		c.Writes += x.Writes
		c.Locks += x.Locks
		c.Unlocks += x.Unlocks
		c.LockConflicts += x.LockConflicts
		c.Records += x.BatchRecords
	}
	return c
}

func openTestSegs(t *testing.T) [numSegs]*segstore.Store {
	t.Helper()
	dir := t.TempDir()
	segs, err := openSegs(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for i, s := range segs {
			if err := s.Close(); err != nil {
				t.Errorf("close segstore %d: %v", i, err)
			}
		}
	})
	return segs
}

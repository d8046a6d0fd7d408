package main

import (
	"fmt"
	"strings"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// fullStore is every optional block interface the deployment's stores
// implement. shard and stable type-assert their backends for each one
// and fall back to loop adapters when one is missing, so a wrapper that
// hid any of them would measure a different program.
type fullStore interface {
	block.MultiStore
	block.PairStore
	block.UsageReporter
	block.StatsReporter
	block.EpochStore
	block.Claimer
	block.TraceBinder
}

// optionalSet names the optional block interfaces s implements.
func optionalSet(s block.Store) []string {
	var out []string
	if _, ok := s.(block.MultiStore); ok {
		out = append(out, "MultiStore")
	}
	if _, ok := s.(block.PairStore); ok {
		out = append(out, "PairStore")
	}
	if _, ok := s.(block.UsageReporter); ok {
		out = append(out, "UsageReporter")
	}
	if _, ok := s.(block.StatsReporter); ok {
		out = append(out, "StatsReporter")
	}
	if _, ok := s.(block.EpochStore); ok {
		out = append(out, "EpochStore")
	}
	if _, ok := s.(block.Claimer); ok {
		out = append(out, "Claimer")
	}
	if _, ok := s.(block.TraceBinder); ok {
		out = append(out, "TraceBinder")
	}
	return out
}

// timedStore records a span for every data-path call into the store it
// wraps and forwards every optional interface. It wraps only stores that
// implement all of them, so its method set equals its target's.
type timedStore struct {
	in    fullStore
	rec   *recorder
	layer uint8
	inst  uint8
}

func wrapStore(s block.Store, rec *recorder, layer, inst int) (*timedStore, error) {
	f, ok := s.(fullStore)
	if !ok {
		return nil, fmt.Errorf("wrap %T: implements only [%s]; a timing wrapper would add interfaces it lacks",
			s, strings.Join(optionalSet(s), " "))
	}
	return &timedStore{in: f, rec: rec, layer: uint8(layer), inst: uint8(inst)}, nil
}

func (t *timedStore) done(start int64, op uint16, n int) {
	t.rec.add(span{start: start, end: t.rec.now(), n: uint32(n), op: op, layer: t.layer, inst: t.inst})
}

func (t *timedStore) BlockSize() int { return t.in.BlockSize() }

func (t *timedStore) Alloc(a block.Account, data []byte) (block.Num, error) {
	s := t.rec.now()
	n, err := t.in.Alloc(a, data)
	t.done(s, opAlloc, 1)
	return n, err
}

func (t *timedStore) Free(a block.Account, n block.Num) error {
	s := t.rec.now()
	err := t.in.Free(a, n)
	t.done(s, opFree, 1)
	return err
}

func (t *timedStore) Read(a block.Account, n block.Num) ([]byte, error) {
	s := t.rec.now()
	d, err := t.in.Read(a, n)
	t.done(s, opRead, 1)
	return d, err
}

func (t *timedStore) Write(a block.Account, n block.Num, data []byte) error {
	s := t.rec.now()
	err := t.in.Write(a, n, data)
	t.done(s, opWrite, 1)
	return err
}

func (t *timedStore) Lock(a block.Account, n block.Num) error {
	s := t.rec.now()
	err := t.in.Lock(a, n)
	t.done(s, opLock, 1)
	return err
}

func (t *timedStore) Unlock(a block.Account, n block.Num) error {
	s := t.rec.now()
	err := t.in.Unlock(a, n)
	t.done(s, opLock, 1)
	return err
}

func (t *timedStore) Recover(a block.Account) ([]block.Num, error) {
	s := t.rec.now()
	ns, err := t.in.Recover(a)
	t.done(s, opOther, 0)
	return ns, err
}

func (t *timedStore) ReadMulti(a block.Account, ns []block.Num) ([][]byte, error) {
	s := t.rec.now()
	d, err := t.in.ReadMulti(a, ns)
	t.done(s, opRead, len(ns))
	return d, err
}

func (t *timedStore) WriteMulti(a block.Account, ns []block.Num, data [][]byte) error {
	s := t.rec.now()
	err := t.in.WriteMulti(a, ns, data)
	t.done(s, opWrite, len(ns))
	return err
}

func (t *timedStore) AllocMulti(a block.Account, data [][]byte) ([]block.Num, error) {
	s := t.rec.now()
	ns, err := t.in.AllocMulti(a, data)
	t.done(s, opAlloc, len(data))
	return ns, err
}

func (t *timedStore) FreeMulti(a block.Account, ns []block.Num) error {
	s := t.rec.now()
	err := t.in.FreeMulti(a, ns)
	t.done(s, opFree, len(ns))
	return err
}

func (t *timedStore) Claim(a block.Account, n block.Num) error {
	s := t.rec.now()
	err := t.in.Claim(a, n)
	t.done(s, opAlloc, 1)
	return err
}

func (t *timedStore) ClearLocks()                      { t.in.ClearLocks() }
func (t *timedStore) Usage() (block.Usage, error)      { return t.in.Usage() }
func (t *timedStore) BlockStats() (block.Stats, error) { return t.in.BlockStats() }
func (t *timedStore) Epoch() (uint64, error)           { return t.in.Epoch() }
func (t *timedStore) SetEpoch(e uint64) error          { return t.in.SetEpoch(e) }

// BindTrace hands out the target's own per-request view, untimed. The
// program's tracer is off in every run, so the stack never binds one.
func (t *timedStore) BindTrace(tc trace.Context) block.Store { return t.in.BindTrace(tc) }

var _ fullStore = (*timedStore)(nil)

// timedTransactor records a client-layer span per call, sized by the
// request and reply wire lengths. server maps a port to the index of the
// file server behind it.
type timedTransactor struct {
	in     rpc.Transactor
	rec    *recorder
	server func(capability.Port) int
}

func (t *timedTransactor) Transact(port capability.Port, req *rpc.Message) (*rpc.Message, error) {
	s := t.rec.now()
	resp, err := t.in.Transact(port, req)
	n := wireLen(req)
	if resp != nil {
		n += wireLen(resp)
	}
	t.rec.add(span{start: s, end: t.rec.now(), n: uint32(n), op: uint16(req.Command),
		layer: layerClient, inst: uint8(t.server(port))})
	return resp, err
}

// wireLen is an untraced message's encoded length: the fixed header
// (command, status, four args, cap count), the capabilities, the data
// length and the data.
func wireLen(m *rpc.Message) int {
	return 4 + 4 + 8*4 + 1 + len(m.Caps)*capability.EncodedLen + 4 + len(m.Data)
}

// timedHandler records a server-layer span per request it serves.
func timedHandler(h rpc.Handler, rec *recorder, server int) rpc.Handler {
	return func(req *rpc.Message) *rpc.Message {
		s := rec.now()
		resp := h(req)
		rec.add(span{start: s, end: rec.now(), op: uint16(req.Command), layer: layerServer, inst: uint8(server)})
		return resp
	}
}

package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/file"
	"repro/internal/ftab"
	"repro/internal/gc"
	"repro/internal/rpc"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stable"
	"repro/internal/version"
)

const (
	// blockSize holds a leaf page's 1 KiB payload plus its header, and
	// a root page's version header plus 32 references.
	blockSize = 2048
	// retain is afs-server's default committed-version horizon.
	retain  = 4
	numSegs = 4
)

// machine is one file-service process: its shared state, replicated file
// table, one file server and the TCP listener serving both.
type machine struct {
	sh  *server.Shared
	rep *ftab.Replicated
	srv *server.Server
	tcp *rpc.TCPServer
}

// deployment is the stack afs-server -mirror builds, in one process: four
// durable segment logs joined as two §4 mirrored pairs behind the shard
// facade, two file servers sharing a replicated file table over TCP
// loopback, and clients reaching the servers over TCP. With a recorder,
// the benchmark's timing wrappers sit at every layer boundary.
type deployment struct {
	dir  string
	rec  *recorder
	segs [numSegs]*segstore.Store
	// stores[i] is the block.Store handed to server i (its own timing
	// wrapper over the one shard facade when traced).
	stores   [2]block.Store
	machines [2]*machine
	res      *rpc.Resolver
	serverOf map[capability.Port]int
	peerTCP  []*rpc.TCPClient
	cliTCP   []*rpc.TCPClient
	col      *gc.Collector
	peerPins atomic.Value
	rebuilt  time.Duration // the last file.Rebuild's duration

	maintMu  sync.Mutex
	gcTimes  []time.Duration
	gcFreed  []int
	compacts []time.Duration
}

func segOptions() segstore.Options {
	// Lanes and the sync window stay at the program's defaults, but the
	// flush policy is SyncNone, not the default SyncGroup. The benchmark
	// writes only inside its checkout, so the logs cannot live on a
	// memory-backed file system, where an fsync costs only its syscall;
	// on a shared virtual disk the fsyncs set every figure and swing it
	// by half from run to run. Under SyncNone each lane's appender and
	// syncer still run, but the syncer skips the fsync and the appender
	// batches only the requests already queued: the adaptive
	// group-commit window, which holds a batch open for stragglers, is
	// never opened or resized, so it goes unmeasured here. The
	// compactor's timer is off (CompactEvery zero): CompactOnce runs
	// inline instead.
	return segstore.Options{BlockSize: blockSize, Sync: segstore.SyncNone}
}

func openSegs(dir string) ([numSegs]*segstore.Store, error) {
	var segs [numSegs]*segstore.Store
	for i := range segs {
		st, err := segstore.Open(filepath.Join(dir, fmt.Sprintf("seg%d", i)), segOptions())
		if err != nil {
			for _, s := range segs[:i] {
				s.Close()
			}
			return segs, fmt.Errorf("open segstore %d: %w", i, err)
		}
		segs[i] = st
	}
	return segs, nil
}

// newDeployment opens fresh stores under dir and stands up the service.
func newDeployment(dir string, rec *recorder) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := openSegs(dir)
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, rec: rec, segs: segs}
	if err := d.up(false); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// up builds the block tier over d.segs and starts both machines. With
// recovered set, machine 0 rebuilds the file table from the §4 recovery
// scan and machine 1 pulls it from machine 0, as two restarted
// afs-server processes would.
func (d *deployment) up(recovered bool) error {
	_, _, stores, err := buildTier(d.segs, d.rec)
	if err != nil {
		return err
	}
	d.stores = stores

	d.res = rpc.NewResolver()
	d.serverOf = make(map[capability.Port]int)
	for i := range d.machines {
		m, err := d.newMachine(i)
		if err != nil {
			return err
		}
		d.machines[i] = m
	}
	for i, m := range d.machines {
		for j := range d.machines {
			if j != i {
				cli := rpc.NewTCPClient(d.res)
				cli.SetRetryPolicy(rpc.RetryPolicy{Attempts: 2})
				d.peerTCP = append(d.peerTCP, cli)
				m.rep.AddPeer(uint32(j), cli)
			}
		}
	}
	m0, m1 := d.machines[0], d.machines[1]
	m0.rep.Bootstrap()
	if recovered {
		rb := time.Now()
		t, err := file.Rebuild(version.NewStore(d.stores[0], m0.sh.Acct))
		d.rebuilt = time.Since(rb)
		if err != nil {
			return fmt.Errorf("recover file table: %w", err)
		}
		m0.sh.AdoptTable(t)
		if !m0.rep.Flush(10 * time.Second) {
			return errors.New("file table did not reach machine 1")
		}
	}
	m1.rep.Bootstrap()

	// The collector runs as the elected sweeper runs it: machine 0 has
	// the lowest replica ID, and the gate pins machine 1's open versions.
	d.col = gc.New(version.NewStore(d.stores[0], m0.sh.Acct), m0.sh.Table, retain, func() []block.Num {
		out := m0.srv.LiveVersions()
		if pins, _ := d.peerPins.Load().([]block.Num); pins != nil {
			out = append(out, pins...)
		}
		return out
	})
	d.col.Gate = func() bool {
		if !m0.rep.SweepLeader() {
			return false
		}
		pins, ok := m0.rep.PeerLive()
		if !ok {
			return false
		}
		d.peerPins.Store(pins)
		return true
	}
	return nil
}

func (d *deployment) newMachine(i int) (*machine, error) {
	sh := server.NewShared(d.stores[i], 1)
	sh.SetID(uint32(i))
	tcp, err := rpc.NewTCPServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &machine{sh: sh, tcp: tcp}
	m.rep = ftab.NewReplicated(ftab.Options{
		ID:        uint32(i),
		Local:     sh.Table.(*file.Table),
		Store:     version.NewStore(d.stores[i], sh.Acct),
		Ident:     sh.Fact,
		PortAlive: sh.Ports.Alive,
		Live:      func() []block.Num { return m.srv.LiveVersions() },
	})
	sh.Table = m.rep
	tcp.Register(ftab.PortFor(uint32(i)), m.rep.Handler())
	d.res.Set(ftab.PortFor(uint32(i)), tcp.Addr())
	m.srv = server.New(sh, func(p capability.Port) bool { return sh.Ports.Alive(p) || m.rep.PortAlive(p) })
	h := m.srv.Handler()
	if d.rec != nil {
		h = timedHandler(h, d.rec, i)
	}
	tcp.Register(m.srv.Port(), h)
	d.res.Set(m.srv.Port(), tcp.Addr())
	d.serverOf[m.srv.Port()] = i
	return m, nil
}

// buildTier joins the four segment logs as two mirrored pairs behind the
// shard facade, and returns the store handed to each server. With a
// recorder, a timing wrapper sits at every boundary: under each pair's
// halves, under the facade's two legs and over the facade, one per
// server.
func buildTier(segs [numSegs]*segstore.Store, rec *recorder) ([2]*stable.Pair, *shard.Store, [2]block.Store, error) {
	var pairs [2]*stable.Pair
	var stores [2]block.Store
	var backs [numSegs]block.PairStore
	for i, s := range segs {
		backs[i] = s
		if rec != nil {
			w, err := wrapStore(s, rec, layerSeg, i)
			if err != nil {
				return pairs, nil, stores, err
			}
			backs[i] = w
		}
	}
	var legs [2]block.Store
	for i := range pairs {
		pairs[i] = stable.NewFailoverPair(backs[2*i], backs[2*i+1])
		legs[i] = pairs[i]
		if rec != nil {
			w, err := wrapStore(pairs[i], rec, layerPair, i)
			if err != nil {
				return pairs, nil, stores, err
			}
			legs[i] = w
		}
	}
	sh, err := shard.New(legs[:]...)
	if err != nil {
		return pairs, nil, stores, err
	}
	for i := range stores {
		stores[i] = sh
		if rec != nil {
			w, err := wrapStore(sh, rec, layerStore, i)
			if err != nil {
				return pairs, nil, stores, err
			}
			stores[i] = w
		}
	}
	return pairs, sh, stores, nil
}

// client returns a new client that prefers server prefer and fails over
// to the other.
func (d *deployment) client(prefer int) *client.Client {
	tcp := rpc.NewTCPClient(d.res)
	d.cliTCP = append(d.cliTCP, tcp)
	var tr rpc.Transactor = tcp
	if d.rec != nil {
		tr = &timedTransactor{in: tcp, rec: d.rec, server: func(p capability.Port) int { return d.serverOf[p] }}
	}
	return client.New(tr, d.machines[prefer].srv.Port(), d.machines[1-prefer].srv.Port())
}

// maintain runs one collector cycle and then compacts every segment log
// until no sealed segment is worth compacting. The load goroutines call
// it at fixed operation counts, never from a timer.
func (d *deployment) maintain() error {
	d.maintMu.Lock()
	defer d.maintMu.Unlock()
	rep, err := d.col.Collect()
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	d.gcTimes = append(d.gcTimes, rep.Duration)
	d.gcFreed = append(d.gcFreed, rep.Freed)
	start := time.Now()
	for _, s := range d.segs {
		for k := 0; k < 1024; k++ {
			did, err := s.CompactOnce()
			if err != nil {
				return fmt.Errorf("compact: %w", err)
			}
			if !did {
				break
			}
		}
	}
	d.compacts = append(d.compacts, time.Since(start))
	return nil
}

// resetMaintenance forgets the maintenance passes run so far.
func (d *deployment) resetMaintenance() {
	d.maintMu.Lock()
	d.gcTimes, d.gcFreed, d.compacts = nil, nil, nil
	d.maintMu.Unlock()
}

// diskBytes sums the sizes of every file the four segment logs hold.
func (d *deployment) diskBytes() (int64, error) {
	var total int64
	err := filepath.Walk(d.dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// stopService stops the replication streams and the TCP endpoints. With
// crash set the streams are killed undrained, as a dying process's are.
func (d *deployment) stopService(crash bool) {
	for _, m := range d.machines {
		if m == nil {
			continue
		}
		if crash {
			m.rep.Kill()
		} else {
			m.rep.Close(5 * time.Second)
		}
	}
	for _, c := range d.cliTCP {
		c.Close()
	}
	for _, c := range d.peerTCP {
		c.Close()
	}
	for _, m := range d.machines {
		if m != nil {
			m.tcp.Close()
		}
	}
	d.cliTCP, d.peerTCP = nil, nil
	d.machines = [2]*machine{}
}

// crash abandons the deployment: the service stops without draining and
// every segment log drops its file handles unflushed, standing in for a
// killed process. Acknowledged writes are already durable.
func (d *deployment) crash() {
	d.stopService(true)
	for _, s := range d.segs {
		s.Abandon()
	}
}

// recoverTimes is what a restart after a crash cost.
type recoverTimes struct {
	open, rebuild, total time.Duration
}

// restart reopens the abandoned segment logs and stands the service up
// again; it returns once a client has been answered with the current
// version of every file the recovery scan found.
func (d *deployment) restart() (recoverTimes, error) {
	var rt recoverTimes
	start := time.Now()
	segs, err := openSegs(d.dir)
	if err != nil {
		return rt, err
	}
	d.segs = segs
	rt.open = time.Since(start)
	if err := d.up(true); err != nil {
		return rt, err
	}
	rt.rebuild = d.rebuilt
	sh := d.machines[0].sh
	cl := d.client(0)
	for _, obj := range sh.Table.Objects() {
		c, ok := sh.Fact.Owner(obj)
		if !ok {
			return rt, fmt.Errorf("recovered file %d has no capability", obj)
		}
		if _, err := cl.CurrentVersion(c); err != nil {
			return rt, fmt.Errorf("recovered file %d: %w", obj, err)
		}
	}
	rt.total = time.Since(start)
	return rt, nil
}

// close shuts everything down in order and closes the segment logs.
func (d *deployment) close() error {
	d.stopService(false)
	var first error
	for _, s := range d.segs {
		if s != nil {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

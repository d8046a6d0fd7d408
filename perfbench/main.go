// Command perfbench is the repository's benchmark. It stands up, in one
// process, two file servers sharing a replicated file table over TCP
// loopback in front of two §4 mirrored pairs of durable segment logs,
// drives one workload against it through clients on TCP, checks every
// page the program returns against the benchmark's own model of the
// files, and prints end-to-end metrics (--trace 0) or per-layer metrics
// from a separate run with timing wrappers at every layer boundary
// (--trace 1). The last line of its output is one JSON object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload commit-spread --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/block"
	"repro/internal/page"
	"repro/internal/server"
)

// A --trace 0 run stands the deployment up at least minRepeats times,
// and more while their total stays under repeatBudget (at most
// maxRepeats); it reports the median set-up time and measures on the last
// one. It times crash-and-restart cycles on the first by the same rule
// and reports their median. A set-up of a thousand files takes about a
// second and a median of three of them followed the host's jitter (a
// third apart between runs); cheap set-ups and restarts take
// milliseconds, so the budget repeats them more.
const (
	minRepeats   = 9
	maxRepeats   = 400
	repeatBudget = 4 * time.Second
)

// again reports whether a repeated measurement should run once more,
// given the seconds each run so far took.
func again(times []float64) bool {
	var total float64
	for _, t := range times {
		total += t
	}
	return len(times) < minRepeats || (total < repeatBudget.Seconds() && len(times) < maxRepeats)
}

// heapAfterOps is how many operations into the window heap_mb is read.
// The segment logs' block index grows with the block numbers a window
// has allocated, not only with the live blocks, so a heap read at the
// window's end followed the operations the host let the window fit (10
// to 13 MiB over ten commit-spread seeds). A 30-second window fits
// between two and five times this many on a 2-CPU host.
const heapAfterOps = 4000

// dataDir holds each run's segment logs, inside the checkout the
// benchmark runs from.
const dataDir = ".bench_build/perfbench-data"

// warmupRounds run, uncounted, after populating and before each window.
var warmupRounds = map[string]int{"commit-spread": 8, "read-mostly": 20, "commit-contended": 20}

// tracedRounds is the fixed length of a traced run, per load goroutine,
// so that the program's counters repeat exactly for a seed where the
// workload has a single load goroutine.
var tracedRounds = map[string]int{"commit-spread": 150, "read-mostly": 600, "commit-contended": 800}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in the order they were set, for printing.
type report struct {
	names []string
	m     map[string]metric
}

func (r *report) set(name, unit string, v float64) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "commit-spread, read-mostly or commit-contended")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := specs[*workload]; !ok {
		fail(fmt.Errorf("unknown --workload %q", *workload))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	dir, err := filepath.Abs(filepath.Join(dataDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *traced)
	printHost()

	b := &bench{name: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, dir: dir}
	var rep report
	if *traced == 1 {
		err = b.perLayer(&rep)
	} else {
		err = b.endToEnd(&rep)
	}
	// A model mismatch makes the run incorrect; a failed operation ends
	// it, is counted in failed and makes the exit status nonzero; any
	// other error (set-up, maintenance, recovery) ends it without a
	// result.
	var ce errCheck
	correct := true
	switch {
	case errors.As(err, &ce):
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
	case err != nil && b.failed > 0:
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	case err != nil:
		os.RemoveAll(dir)
		fail(err)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", b.attempted, b.failed, correct)
	for _, n := range rep.names {
		fmt.Printf("metric %-36s %-6s %.6g\n", n, rep.m[n].Unit, rep.m[n].Value)
	}
	out, err := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: rep.m})
	if err != nil {
		fail(err)
	}
	os.RemoveAll(dir)
	fmt.Println(string(out))
	if b.failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one invocation: a workload, a seed and a window length.
type bench struct {
	name      string
	seed      int64
	window    time.Duration
	dir       string
	runs      int
	attempted int
	failed    int
}

// stand opens a fresh deployment (traced when rec is set), populates the
// workload's files and warms up.
func (b *bench) stand(rec *recorder) (*deployment, *load, error) {
	b.runs++
	d, err := newDeployment(filepath.Join(b.dir, fmt.Sprint(b.runs)), rec)
	if err != nil {
		return nil, nil, err
	}
	l, err := newLoad(b.name, d, b.seed)
	if err != nil {
		d.close()
		return nil, nil, err
	}
	if _, _, err := l.run(0, warmupRounds[b.name]); err != nil {
		d.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, l, nil
}

func (b *bench) teardown(d *deployment) error {
	err := d.close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// endToEnd stands the deployment up several times, times repeated
// crash-and-restart cycles on the first and compares every page of every
// file the last restart recovered with the model, then measures the
// window untraced on the last set-up and checks every page after it.
//
// No crash follows the window: once compaction has run, a restart
// serves some files at older versions (a fault of the segment log, see
// CHANGES.md), and on how many pages depends on the seed and the timing,
// so that check could not fail the same share of every run.
func (b *bench) endToEnd(rep *report) error {
	var setupTimes, recoverTimes []float64
	var d *deployment
	var l *load
	for {
		// The previous deployment's garbage is collected before the
		// clock starts, not during the next set-up.
		runtime.GC()
		start := time.Now()
		var err error
		d, l, err = b.stand(nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if len(setupTimes) == 1 {
			// Restarts are timed over the state set-up leaves, which
			// does not depend on how many operations the window fits.
			for again(recoverTimes) {
				rt, err := b.crashAndRestart(d)
				if err != nil {
					return err
				}
				recoverTimes = append(recoverTimes, rt.total.Seconds())
			}
			if err := checkRecovered(d, l); err != nil {
				return err
			}
		}
		if !again(setupTimes) {
			break
		}
		if err := b.teardown(d); err != nil {
			return err
		}
	}
	defer b.teardown(d)

	runtime.GC()
	l.heapMark = l.opsDone.Load() + heapAfterOps
	cpu0 := cpuTime()
	t, elapsed, err := l.run(b.window, 0)
	cpu1 := cpuTime()
	b.count(t)
	if err != nil {
		return err
	}
	if err := b.quiesce(d); err != nil {
		return err
	}
	if err := checkAll(d, l); err != nil {
		return err
	}
	heap := l.heap
	if heap == 0 {
		heap = liveHeap()
		fmt.Printf("heap read at the window's end: the window ended before %d operations\n", heapAfterOps)
	}
	disk, err := d.diskBytes()
	if err != nil {
		return err
	}
	endToEndMetrics(rep, t, elapsed, cpu1-cpu0, heap, disk, setupTimes, recoverTimes)
	fmt.Printf("samples commits %d reads %d; window %.3fs\n", len(t.commitLat), len(t.readLat), elapsed.Seconds())
	return nil
}

// count adds a window's operations to the run's attempted and failed
// counts.
func (b *bench) count(t tally) {
	b.attempted += t.ops + t.failed
	b.failed += t.failed
}

// endToEndMetrics sets every end-to-end metric of an untraced run.
func endToEndMetrics(rep *report, t tally, elapsed, cpu time.Duration, heap uint64, disk int64, setupTimes, recoverTimes []float64) {
	rep.set("ops_per_s", "ops/s", opsPerSecond(t.done, elapsed))
	rep.set("commit_p50_ms", "ms", ms64(percentile(t.commitLat, 0.50)))
	rep.set("commit_p90_ms", "ms", ms64(percentile(t.commitLat, 0.90)))
	rep.set("read_p50_ms", "ms", ms64(percentile(t.readLat, 0.50)))
	rep.set("read_p90_ms", "ms", ms64(percentile(t.readLat, 0.90)))
	rep.set("cpu_ms_per_op", "ms", ratio(ms64(cpu), float64(t.ops)))
	rep.set("heap_mb", "MiB", float64(heap)/(1<<20))
	rep.set("disk_mb", "MiB", float64(disk)/(1<<20))
	rep.set("setup_s", "s", median(setupTimes))
	rep.set("recover_s", "s", median(recoverTimes))
}

// opsPerSecond splits the window's operations, in completion order, into
// runs of maintEvery operations and returns the median of their rates;
// done holds each operation's completion time from the window's start.
// A collector and compaction pass starts every maintEvery operations, so
// each run pays for exactly one, while a run the host stalled the process
// does not move the median. A window shorter than two runs gives the
// plain rate.
func opsPerSecond(done []time.Duration, elapsed time.Duration) float64 {
	runs := len(done) / maintEvery
	if runs < 2 {
		return ratio(float64(len(done)), elapsed.Seconds())
	}
	ts := append([]time.Duration(nil), done...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	rates := make([]float64, runs)
	var from time.Duration
	for k := range rates {
		to := ts[(k+1)*maintEvery-1]
		rates[k] = ratio(maintEvery, (to - from).Seconds())
		from = to
	}
	return median(rates)
}

// quiesce runs the final collection — two cycles, so that blocks
// condemned in the first are freed in the second — and compaction, then
// drains the replication streams.
func (b *bench) quiesce(d *deployment) error {
	for i := 0; i < 2; i++ {
		if err := d.maintain(); err != nil {
			return err
		}
	}
	for _, m := range d.machines {
		if !m.rep.Flush(10 * time.Second) {
			return errors.New("file table replication did not drain")
		}
	}
	return nil
}

// checkAll reads every page of every file's current version through
// server 0 and compares it with the model: what the live service holds
// before any crash.
func checkAll(d *deployment, l *load) error {
	srv := d.machines[0].srv
	err := checkFiles(l, pagesOf(srv, func(f int) (block.Num, error) {
		return srv.CurrentVersion(l.caps[f])
	}))
	if err != nil {
		return errCheck{fmt.Errorf("after the window: %w", err)}
	}
	return nil
}

// crashAndRestart abandons the deployment and restarts it over the same
// segment logs.
func (b *bench) crashAndRestart(d *deployment) (recoverTimes, error) {
	d.crash()
	rt, err := d.restart()
	if err != nil {
		return rt, fmt.Errorf("recover: %w", err)
	}
	return rt, nil
}

// checkRecovered compares every page of every file the restarted service
// holds, at the version its recovered file table names, with the model's
// last committed bytes: every commit acknowledged before the crash must
// have survived it.
func checkRecovered(d *deployment, l *load) error {
	srv := d.machines[0].srv
	tab := d.machines[0].sh.Table
	err := checkFiles(l, pagesOf(srv, func(f int) (block.Num, error) {
		e, err := tab.Get(l.caps[f].Object)
		return e.Entry, err
	}))
	if err != nil {
		return errCheck{fmt.Errorf("after the crash and restart: %w", err)}
	}
	return nil
}

// pagesOf reads page p of file f through srv, at the version root rootOf
// returns for f; it looks the root up once per file, as checkFiles reads
// a file's pages in a row.
func pagesOf(srv *server.Server, rootOf func(f int) (block.Num, error)) func(f, p int) ([]byte, error) {
	cur, root, rootErr := -1, block.Num(0), error(nil)
	return func(f, p int) ([]byte, error) {
		if f != cur {
			cur = f
			root, rootErr = rootOf(f)
		}
		if rootErr != nil {
			return nil, rootErr
		}
		data, _, err := srv.ReadCommitted(root, page.Path{p})
		return data, err
	}
}

// checkFiles reads every page of every file through read and compares it
// with the model's last committed bytes. In the contended workload it
// also sums the counters the program returned: every update issued is
// redone until it commits and increments two counters, so they must sum
// to twice the updates issued.
func checkFiles(l *load, read func(f, p int) ([]byte, error)) error {
	files := l.m.files()
	var first error
	var sum uint64
	stale, staleFiles := 0, 0
	for f := 0; f < files; f++ {
		bad := 0
		for p := 0; p < l.m.pages; p++ {
			data, err := read(f, p)
			if err != nil {
				err = fmt.Errorf("read file %d page %d: %w", f, p, err)
			} else {
				err = l.m.check(f, p, data)
			}
			if err != nil {
				bad++
				if first == nil {
					first = err
				}
				continue
			}
			if l.m.counters != nil {
				sum += binary.LittleEndian.Uint64(data)
			}
		}
		if bad > 0 {
			stale += bad
			staleFiles++
		}
	}
	if stale > 0 {
		return fmt.Errorf("%d of %d pages in %d of %d files are not the last committed bytes; first: %w",
			stale, files*l.m.pages, staleFiles, files, first)
	}
	if l.m.counters != nil && sum != 2*uint64(l.issued) {
		return fmt.Errorf("counters sum to %d, want twice the %d updates issued", sum, l.issued)
	}
	return nil
}

// perLayer crashes and restarts a fresh set-up, as endToEnd times it,
// and checks what it recovered; it measures the window untraced once,
// for the overhead ratio, then runs the workload for a fixed number of
// rounds on a traced deployment and derives every per-layer metric from
// the wrappers' spans and the program's own counters.
func (b *bench) perLayer(rep *report) error {
	d, l, err := b.stand(nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rt, err := b.crashAndRestart(d)
	if err == nil {
		err = checkRecovered(d, l)
	}
	if err != nil {
		b.teardown(d)
		return err
	}
	if err := b.teardown(d); err != nil {
		return err
	}

	d, l, err = b.stand(nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	t, elapsed, err := l.run(b.window, 0)
	b.count(t)
	if err != nil {
		b.teardown(d)
		return err
	}
	untraced := float64(t.ops) / elapsed.Seconds()
	if err := b.teardown(d); err != nil {
		return err
	}

	rec := newRecorder()
	d, l, err = b.stand(rec)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer b.teardown(d)
	before := snapCounters(d, l)
	d.resetMaintenance()
	rec.reset()
	runtime.GC()
	t, elapsed, err = l.run(0, tracedRounds[b.name])
	b.count(t)
	if err != nil {
		return err
	}
	spans := rec.snapshot()
	after := snapCounters(d, l)
	layerMetrics(rep, t, spans, before, after, d)
	traced := float64(t.ops) / elapsed.Seconds()
	overhead := untraced / traced
	fmt.Printf("ops_per_s untraced %.1f traced %.1f\n", untraced, traced)

	if err := b.quiesce(d); err != nil {
		return err
	}
	if err := checkAll(d, l); err != nil {
		return err
	}
	recoveryMetrics(rep, overhead, rt)
	return nil
}

// recoveryMetrics sets the per-layer metrics a traced run measures
// around its window rather than from its spans.
func recoveryMetrics(rep *report, overhead float64, rt recoverTimes) {
	rep.set("trace.overhead_ratio", "ratio", overhead)
	rep.set("segstore.open_s", "s", rt.open.Seconds())
	rep.set("file.rebuild_s", "s", rt.rebuild.Seconds())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printHost prints the host block: CPUs, Go, the commit measured and the
// file system the segment logs live on.
func printHost() {
	os.MkdirAll(dataDir, 0o755)
	fmt.Printf("host nproc %d gomaxprocs %d go %s commit %s datadir_fs %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit(), fsType(dataDir))
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if c, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(c))
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlay"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

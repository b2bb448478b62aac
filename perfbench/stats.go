package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the CPU time the process has used, all threads, user
// and system. Work measured in CPU time leaves out time the host's other
// tenants take from this machine's CPUs (steal), which on a shared host
// otherwise dominates the spread between runs.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples is a list of durations in nanoseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())) }

// us returns the q-quantile in microseconds.
func (s samples) us(q float64) float64 { return quantile(s, q) / 1e3 }

// hist is a log-linear histogram of non-negative nanosecond values for
// timings too numerous to keep one by one: 64 linear sub-buckets per
// power of two, so a quantile is within about 1.6 % of the true value.
type hist struct {
	counts [64 * 64]uint64
	n      uint64
}

const histSub = 64

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 7 // v >> exp lies in [64, 128)
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

func histLower(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	exp := b/histSub - 1
	return float64(uint64(b%histSub+histSub) << uint(exp))
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := histBucket(uint64(ns))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return (histLower(b) + histLower(b+1)) / 2
		}
	}
	return histLower(len(h.counts))
}

// span is one timed call across a layer boundary, kept in memory for
// the traced run and written out when the run ends.
type span struct {
	name   string
	start  time.Duration // since the recorder was created
	dur    time.Duration
	parent int32 // index of the causing span, -1 for none
}

// maxSpans bounds the in-memory span log; calls past it still feed the
// per-layer timings but are not kept as spans (counted in dropped).
const maxSpans = 2_000_000

// recorder keeps the spans of a traced run. It is used from one
// goroutine at a time.
type recorder struct {
	t0      time.Time
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span and returns its index (-1 once the log is full) and
// start time. A nil recorder records nothing.
func (r *recorder) open(name string, parent int32) (int32, time.Time) {
	now := time.Now()
	if r == nil {
		return -1, now
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1, now
	}
	r.spans = append(r.spans, span{name: name, start: now.Sub(r.t0), parent: parent})
	return int32(len(r.spans) - 1), now
}

// close ends span i, opened at start, and returns its duration.
func (r *recorder) close(i int32, start time.Time) time.Duration {
	d := time.Since(start)
	if r != nil && i >= 0 {
		r.spans[i].dur = d
	}
	return d
}

// setDur sets span i's duration to d, measured by the caller, and
// returns d.
func (r *recorder) setDur(i int32, d time.Duration) time.Duration {
	if r != nil && i >= 0 {
		r.spans[i].dur = d
	}
	return d
}

// write dumps the spans as tab-separated lines: index, parent, name,
// start ns, duration ns.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# index\tparent\tname\tstart_ns\tdur_ns (dropped after the cap: %d)\n", r.dropped)
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start.Nanoseconds(), s.dur.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// memDelta measures allocation and GC activity over a timed region.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	before     runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.gcCycles += after.NumGC - m.before.NumGC
}

func (m *memDelta) report(rep *report) {
	rep.set("runtime.alloc_mb", float64(m.allocBytes)/(1<<20), "MiB")
	rep.set("runtime.gc_cycles", float64(m.gcCycles), "count")
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupReps is how many times each workload sets up per run; setup_s is
// the median.
const setupReps = 3

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// workers is how many goroutines the benchmark's own parallel checks use.
func workers() int { return runtime.GOMAXPROCS(0) }

// finishTrace writes the traced run's spans out and notes where.
func finishTrace(rec *recorder, o options, workload string) error {
	path, err := rec.write(o.outDir, workload, o.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d kept, %d past the cap, written to %s\n", len(rec.spans), rec.dropped, path)
	return nil
}

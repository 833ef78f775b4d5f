package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAllocs is the exact count of heap allocations so far.
// runtime.ReadMemStats stops the world but, unlike runtime/metrics,
// flushes the per-P caches, so a delta around one call is exact.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// heapBaseline forces a collection and returns the live heap after it:
// the reference the timed phase's high-water is measured against.
func heapBaseline() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// gcClock records the live heap found by every GC cycle for the life of
// the process: a 5 ms poll sees each cycle, since cycles here are tens of
// milliseconds apart or more. Its buffer is allocated before any set-up,
// and the poll allocates nothing, so it is invisible to every heap figure.
type gcClock struct {
	mu   sync.Mutex
	t0   time.Time
	at   []time.Duration
	live []uint64
}

var gcs = startGCClock()

const gcSamples = 1 << 15

func startGCClock() *gcClock {
	c := &gcClock{t0: time.Now(), at: make([]time.Duration, 0, gcSamples), live: make([]uint64, 0, gcSamples)}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	go func() {
		last := uint64(0)
		for range time.Tick(5 * time.Millisecond) {
			metrics.Read(s)
			if s[0].Value.Kind() != metrics.KindUint64 || s[0].Value.Uint64() == last {
				continue
			}
			last = s[0].Value.Uint64()
			c.mu.Lock()
			if len(c.at) < cap(c.at) {
				c.at = append(c.at, time.Since(c.t0))
				c.live = append(c.live, s[1].Value.Uint64())
			}
			c.mu.Unlock()
		}
	}()
	return c
}

// highWater returns, in MB above base, the 90th percentile of the live
// heap over the GC cycles between a and b: the heap the phase holds at
// its busiest, without the single extreme cycle a maximum would report.
func (c *gcClock) highWater(a, b time.Time, base uint64) float64 {
	// A collection at the end makes sure the phase has at least one cycle.
	last := heapBaseline()
	c.mu.Lock()
	mb := []float64{(float64(last) - float64(base)) / (1 << 20)}
	for i, at := range c.at {
		if t := c.t0.Add(at); !t.Before(a) && !t.After(b) {
			mb = append(mb, (float64(c.live[i])-float64(base))/(1<<20))
		}
	}
	c.mu.Unlock()
	return max(quantile(mb, 0.9), 0)
}

// stealClock samples, every 100 ms for the life of the process, the
// CPU time the hypervisor took from the VM ("steal" in /proc/stat).
// Where /proc/stat is missing every share reads 0.
type stealClock struct {
	mu    sync.Mutex
	t0    time.Time
	at    []time.Duration
	ticks []float64
}

// steal is the process-wide clock, started before any set-up so its
// sample buffer is part of every heap baseline.
var steal = startStealClock()

const (
	stealEvery   = 100 * time.Millisecond
	stealSamples = 1 << 13 // 13 minutes of samples, beyond any run
	clockTicks   = 100     // USER_HZ: /proc/stat counts in 1/100 s
)

func startStealClock() *stealClock {
	c := &stealClock{t0: time.Now(), at: make([]time.Duration, 0, stealSamples), ticks: make([]float64, 0, stealSamples)}
	f, err := os.Open("/proc/stat")
	if err != nil {
		return c
	}
	buf := make([]byte, 4096)
	sample := func() {
		n, _ := f.ReadAt(buf, 0)
		v, ok := parseSteal(buf[:n])
		if !ok {
			return
		}
		c.mu.Lock()
		if len(c.at) < cap(c.at) {
			c.at = append(c.at, time.Since(c.t0))
			c.ticks = append(c.ticks, v)
		}
		c.mu.Unlock()
	}
	sample()
	go func() {
		for range time.Tick(stealEvery) {
			sample()
		}
	}()
	return c
}

// parseSteal reads the steal field, the eighth number of the "cpu" line
// that opens /proc/stat, without allocating.
func parseSteal(b []byte) (float64, bool) {
	if len(b) < 4 || string(b[:4]) != "cpu " {
		return 0, false
	}
	field, v, in := 0, 0.0, false
	for _, ch := range b[4:] {
		switch {
		case ch >= '0' && ch <= '9':
			if !in {
				field++
				v, in = 0, true
			}
			v = v*10 + float64(ch-'0')
		case ch == '\n':
			return 0, false
		default:
			if in && field == 8 {
				return v, true
			}
			in = false
		}
	}
	return 0, false
}

// ticksAt interpolates the cumulative steal ticks at t.
func (c *stealClock) ticksAt(t time.Time) float64 {
	d := t.Sub(c.t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.at)
	if n == 0 {
		return 0
	}
	i := sort.Search(n, func(i int) bool { return c.at[i] >= d })
	switch {
	case i == 0:
		return c.ticks[0]
	case i == n:
		return c.ticks[n-1]
	}
	f := float64(d-c.at[i-1]) / float64(c.at[i]-c.at[i-1])
	return c.ticks[i-1] + f*(c.ticks[i]-c.ticks[i-1])
}

// share is the fraction of the machine's CPU time the hypervisor took
// between a and b.
func (c *stealClock) share(a, b time.Time) float64 {
	wall := b.Sub(a).Seconds()
	if wall <= 0 {
		return 0
	}
	return (c.ticksAt(b) - c.ticksAt(a)) / (clockTicks * wall * float64(runtime.NumCPU()))
}

// avail is the share of the VM's CPU time the hypervisor left to it
// between a and b. A timing multiplied by it is the time the work had the
// CPUs: on a shared 2-vCPU VM, steal ran from 0 to 40% for minutes at a
// time, and the raw wall-clock figures tracked it.
func (c *stealClock) avail(a, b time.Time) float64 {
	return 1 - c.share(a, b)
}

// phaseMeter brackets a timed phase: wall time, process CPU time, heap
// allocations, and the live-heap high-water above a baseline.
type phaseMeter struct {
	start  time.Time
	cpu0   float64
	alloc0 uint64
	base   uint64
}

func startPhase(base uint64) *phaseMeter {
	m := &phaseMeter{base: base}
	m.alloc0 = heapAllocs()
	m.cpu0 = cpuSeconds()
	m.start = time.Now()
	return m
}

type phaseTotals struct {
	wall, cpu float64
	avail     float64 // the share of the phase the machine was ours
	allocs    uint64
	peakMB    float64
}

func (m *phaseMeter) stop() phaseTotals {
	end := time.Now()
	cpu := cpuSeconds() - m.cpu0
	allocs := heapAllocs() - m.alloc0
	av := steal.avail(m.start, end)
	fmt.Fprintf(os.Stderr, "perfbench: timed phase %.1f s, process CPU %.1f s, the hypervisor took %.1f%% of the machine\n",
		end.Sub(m.start).Seconds(), cpu, 100*(1-av))
	return phaseTotals{wall: end.Sub(m.start).Seconds(), cpu: cpu, allocs: allocs, avail: av,
		peakMB: gcs.highWater(m.start, end, m.base)}
}

// span is one timed call into a layer. Spans of one request (a frame, a
// session, a pass) share req; parent indexes the enclosing span or is -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory for one goroutine. A nil tracer records
// nothing, so the same code runs traced and untraced. With countAllocs
// each span also records its exact heap allocations (two stop-the-world
// reads per span, which is part of the tracing overhead).
type tracer struct {
	t0          time.Time
	spans       []span
	countAllocs bool
}

func newTracer(countAllocs bool) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), countAllocs: countAllocs}
}

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	s := span{Name: name, Parent: parent, Req: req}
	if t.countAllocs {
		s.Allocs = heapAllocs()
	}
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if t.countAllocs {
		s.Allocs = heapAllocs() - s.Allocs
	}
}

// layerStats sums spans by name: self time (a span's duration minus the
// part its direct children cover) and self allocations.
type layerStats struct {
	self   time.Duration
	allocs uint64
}

func selfTimes(spans []span) map[string]*layerStats {
	child := make([]time.Duration, len(spans))
	childAllocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
			childAllocs[s.Parent] += s.Allocs
		}
	}
	out := map[string]*layerStats{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		st.self += time.Duration(s.End-s.Start) - child[i]
		if s.Allocs >= childAllocs[i] {
			st.allocs += s.Allocs - childAllocs[i]
		}
	}
	return out
}

// spanSink collects the spans of every tracer in a run and writes them
// out as JSON lines when the benchmark ends.
type spanSink struct {
	mu    sync.Mutex
	lists [][]span
}

func (k *spanSink) add(t *tracer) {
	if t == nil {
		return
	}
	k.mu.Lock()
	k.lists = append(k.lists, t.spans)
	k.mu.Unlock()
}

// write stores every span, one JSON object per line, each tracer's
// parents re-based to the merged numbering.
func (k *spanSink) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	off := int32(0)
	for _, l := range k.lists {
		for _, s := range l {
			if s.Parent >= 0 {
				s.Parent += off
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		off += int32(len(l))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeIt returns the median wall time of reps calls of fn, in ms.
func timeIt(reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ds)
}

// counter tallies operations attempted and failed, keeping the first few
// failure reasons for the log.
type counter struct {
	mu                sync.Mutex
	attempted, failed int
	reasons           []string
}

func (c *counter) ok(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// fail counts n more operations, all failed.
func (c *counter) fail(n int, format string, args ...any) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
	c.mark(n, format, args...)
}

// mark records that n operations already counted as attempted failed.
func (c *counter) mark(n int, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed += n
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

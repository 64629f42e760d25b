package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// closedLoop runs ops 0..n-1 on `clients` goroutines. Each client takes
// the next op only after its previous one returned, so a slow system gets
// less load (a closed loop). It returns the phase's wall time.
func closedLoop(n, clients int, do func(client, op int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// hotProcs is the processor count of read-hot's timed and traced phases,
// which therefore measure the library's single-worker paths: kernels, top-k
// and parallel.Run take their serial branch and the two clients never
// overlap. With both vCPUs of the reference machine busy the host steals a
// larger share of ticks, and read-hot's spreads at two processors were up
// to twice those at one. read-churn and grid-cell run on every processor,
// so the parallel paths are measured there. Set-up runs on every
// processor.
const hotProcs = 1

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// quiesce collects garbage, returns free memory to the OS and restarts the
// peak-RSS high-water mark, so peak_rss_mb covers only what follows.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+); elsewhere the
	// peak stays the process lifetime's.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// counters is a snapshot of process-wide resource counters taken at the
// edges of a timed phase.
type counters struct {
	at        time.Time
	procs     int
	cpu       time.Duration
	alloc     uint64
	numGC     uint32
	pauseNs   uint64
	steal     uint64
	cpuTicks  uint64
	haveTicks bool
}

func readCounters() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.numGC, c.pauseNs = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.steal, c.cpuTicks, c.haveTicks = hostTicks()
	c.procs = runtime.GOMAXPROCS(0)
	c.at = time.Now()
	return c
}

// phaseCost is the difference of two counter snapshots.
type phaseCost struct {
	procs      int
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCount    uint32
	gcPause    time.Duration
	stealShare float64 // -1 when /proc/stat is unreadable
}

func costBetween(a, b counters) phaseCost {
	pc := phaseCost{
		procs:      a.procs,
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.alloc - a.alloc,
		gcCount:    b.numGC - a.numGC,
		gcPause:    time.Duration(b.pauseNs - a.pauseNs),
		stealShare: -1,
	}
	if a.haveTicks && b.haveTicks && b.cpuTicks > a.cpuTicks {
		pc.stealShare = float64(b.steal-a.steal) / float64(b.cpuTicks-a.cpuTicks)
	}
	return pc
}

func (pc phaseCost) note(phase string) string {
	steal := "n/a"
	if pc.stealShare >= 0 {
		steal = fmt.Sprintf("%.1f%%", 100*pc.stealShare)
	}
	return fmt.Sprintf("%s: GOMAXPROCS %d wall %.3fs cpu %.3fs host-steal %s gc %d (pause %.2fms)",
		phase, pc.procs, pc.wall.Seconds(), pc.cpu.Seconds(), steal, pc.gcCount, float64(pc.gcPause)/1e6)
}

// hostTicks reads the aggregate cpu line of /proc/stat: the steal ticks
// and the sum of all ticks (user..steal). It is a noise diagnostic only.
func hostTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// dirUsage returns the bytes of the regular files under dir and how many
// of them end in ext.
func dirUsage(dir, ext string) (bytes int64, count int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		if strings.HasSuffix(path, ext) {
			count++
		}
		return nil
	})
	return bytes, count, err
}

// span is one traced call at a layer boundary. Spans of one operation
// share Req; Parent names the layer above (empty at the root).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Rows   int    `json:"rows,omitempty"` // query rows of a kernel call
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory, one slice per client so recording takes
// no lock; they are written out when the run ends.
type tracer struct {
	base time.Time
	per  [][]span
}

func newTracer(clients int) *tracer {
	return &tracer{base: time.Now(), per: make([][]span, clients)}
}

func (t *tracer) rec(client int, name, parent string, req int, start, end time.Time) {
	t.per[client] = append(t.per[client], span{
		Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
}

// recRows records a kernel span with the query rows it scored.
func (t *tracer) recRows(client int, name, parent string, req, rows int, start, end time.Time) {
	t.rec(client, name, parent, req, start, end)
	t.per[client][len(t.per[client])-1].Rows = rows
}

func (t *tracer) all() []span {
	var out []span
	for _, s := range t.per {
		out = append(out, s...)
	}
	return out
}

// byReq sums the durations of the spans named name per operation.
func byReq(spans []span, name string, n int) []time.Duration {
	out := make([]time.Duration, n)
	for _, s := range spans {
		if s.Name == name && s.Req >= 0 && s.Req < n {
			out[s.Req] += s.dur()
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tally is one client's record of a measured window.
type tally struct {
	lat       []time.Duration // every completed op
	mutLat    []time.Duration // the mutations among them
	attempted int
	failed    int
}

// opFunc issues client c's next op and waits for its reply. It reports
// whether the op was a mutation, whether the client has no more ops (done,
// in which case nothing was issued), and the op's failure: an error, a
// refusal or a wrong answer.
type opFunc func(c int) (mut, done bool, err error)

// window is the outcome of one closed-loop window.
type window struct {
	tallies []tally
	elapsed time.Duration
	cpu     time.Duration // process user+sys CPU over the window
	errs    []error       // the first failures, for the report
}

// closedLoop runs n clients for d: client c calls op(c) back to back, each
// call after the previous reply, until d has passed or op reports done. An
// op in flight at the deadline is waited for and counted.
func closedLoop(n int, d time.Duration, op opFunc) window {
	w := window{tallies: make([]tally, n)}
	var mu sync.Mutex
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &w.tallies[c]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				mut, done, err := op(c)
				if done {
					return
				}
				lat := time.Since(t0)
				t.attempted++
				if err != nil {
					t.failed++
					mu.Lock()
					if len(w.errs) < maxErrors {
						w.errs = append(w.errs, err)
					}
					mu.Unlock()
					continue
				}
				t.lat = append(t.lat, lat)
				if mut {
					t.mutLat = append(t.mutLat, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	return w
}

// warmDur is the untimed run-in before a measured window. The first second
// of a loop runs faster than the seconds after it (about 1,800 against 1,250
// ops on read_fit), so the measured window starts once that has passed.
const warmDur = 2 * time.Second

// addWindow adds a window's ops and failures to the result.
func addWindow(w window, res *result, rep *report) {
	res.Attempted += w.attempted()
	res.Failed += w.failed()
	for _, e := range w.errs {
		rep.fail(e)
	}
}

func (w window) attempted() int {
	n := 0
	for _, t := range w.tallies {
		n += t.attempted
	}
	return n
}

func (w window) failed() int {
	n := 0
	for _, t := range w.tallies {
		n += t.failed
	}
	return n
}

// latencies returns every completed op's latency (or only the mutations').
func (w window) latencies(mutOnly bool) []time.Duration {
	var out []time.Duration
	for _, t := range w.tallies {
		if mutOnly {
			out = append(out, t.mutLat...)
		} else {
			out = append(out, t.lat...)
		}
	}
	return out
}

// qps is completed ops per second of the window.
func (w window) qps() float64 {
	return float64(len(w.latencies(false))) / w.elapsed.Seconds()
}

// cpuMSPerOp is process CPU time per attempted op.
func (w window) cpuMSPerOp() float64 {
	return ms(w.cpu) / float64(max(w.attempted(), 1))
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantileMS is the nearest-rank q-quantile of ds in milliseconds (NaN for
// no samples). ds is sorted in place.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ms(ds[max(i, 0)])
}

// meanMS is the mean of ds in milliseconds (0 for no samples).
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveHeapMB is the live heap after a forced collection, in MiB, with keep
// (the stores and state of the run) held live through the measurement.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

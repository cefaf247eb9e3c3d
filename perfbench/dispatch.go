package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long before an op's due time the dispatcher stops
// sleeping and spins. Timer wake-ups on Linux overshoot by tens of
// microseconds to about a millisecond; charging that oversleep to the
// request is what made earlier serving-path numbers mostly timer lag,
// so the last stretch is spun and the wake-up lag is reported on its
// own (load.lag_*) next to a no-op calibration pass (load.floor_*).
const spinWindow = 1500 * time.Microsecond

// target is what the dispatcher drives. Each worker owns its slot w;
// prepare builds op i's request before the op is due, serve issues it
// (the only part inside the service time), and finish checks the
// response after the completion time has been taken.
type target interface {
	prepare(w, i int)
	serve(w int)
	finish(w, i int) bool
}

// timing is one op's record, in nanoseconds since the phase start.
type timing struct {
	due, start, done int64
	failed           bool
}

// latency is the op's time from its intended send to completion. A
// failed op misses every latency limit, so it counts as unbounded.
func (t timing) latency() int64 {
	if t.failed {
		return maxLatency
	}
	return t.done - t.due
}

const maxLatency = int64(1) << 62

// drive runs n ops on workers goroutines and returns their timings and
// the phase start they count from.
// With interval > 0 it is an open loop: op i is due at i·interval after
// the start, whether or not earlier ops have finished, and its latency
// counts from then. With interval 0 the workers issue ops back to back
// (a closed loop, used to measure capacity) and each op is due when
// its worker picks it up. A panic inside an op fails that op.
func drive(n, workers int, interval time.Duration, tg target) (out []timing, start time.Time) {
	out = make([]timing, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i] = driveOne(w, i, start, interval, tg)
			}
		}(w)
	}
	wg.Wait()
	return out, start
}

func driveOne(w, i int, start time.Time, interval time.Duration, tg target) (t timing) {
	defer func() {
		if recover() != nil {
			t.failed = true
			if t.done == 0 {
				t.done = int64(time.Since(start))
			}
		}
	}()
	tg.prepare(w, i)
	if interval > 0 {
		t.due = int64(interval) * int64(i)
		waitUntil(start.Add(time.Duration(t.due)))
		t.start = int64(time.Since(start))
	} else {
		t.start = int64(time.Since(start))
		t.due = t.start
	}
	tg.serve(w)
	t.done = int64(time.Since(start))
	t.failed = !tg.finish(w, i)
	return t
}

// waitUntil sleeps until spinWindow before due and spins the rest,
// yielding so runnable goroutines (the GC's among them) are not
// starved.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			time.Sleep(d - spinWindow)
			continue
		}
		runtime.Gosched()
	}
}

// nullTarget does nothing: driving it on a workload's schedule measures
// the dispatcher's own floor.
type nullTarget struct{}

func (nullTarget) prepare(int, int)     {}
func (nullTarget) serve(int)            {}
func (nullTarget) finish(int, int) bool { return true }

// quantile returns the q-quantile of xs by nearest rank; xs is sorted
// in place. It returns 0 for an empty slice.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	idx := int(q*float64(len(xs))+0.999999999) - 1
	return xs[min(max(idx, 0), len(xs)-1)]
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// latencies, lags and services extract the op timings selected by keep.
func latencies(ts []timing, keep func(i int) bool) []int64 {
	var out []int64
	for i, t := range ts {
		if keep == nil || keep(i) {
			out = append(out, t.latency())
		}
	}
	return out
}

func lags(ts []timing) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.start - t.due
	}
	return out
}

func services(ts []timing, keep func(i int) bool) []int64 {
	var out []int64
	for i, t := range ts {
		if (keep == nil || keep(i)) && !t.failed {
			out = append(out, t.done-t.start)
		}
	}
	return out
}

func countFailed(ts []timing) int64 {
	var n int64
	for _, t := range ts {
		if t.failed {
			n++
		}
	}
	return n
}

package load

import (
	"sync"
	"time"

	"peerlearn/internal/metrics"
)

// Target executes one workload operation against the system under
// test. Do returns the HTTP status code of the response; err reports a
// transport-level failure (no response at all). Implementations own
// all protocol state — session-id mappings, request bodies, connection
// pools — so the runner stays protocol-agnostic.
type Target interface {
	Do(op Op) (status int, err error)
}

// RouteStats accumulates one op kind's results: the latency
// distribution of responded requests, response counts by status class,
// and transport errors.
type RouteStats struct {
	// Hist holds latencies in nanoseconds of every request that
	// produced a response, measured from the intended send time.
	Hist *metrics.Histogram

	mu sync.Mutex
	//peerlint:guardedby mu
	status map[string]uint64
	//peerlint:guardedby mu
	errors uint64
}

// record books one completed op.
func (rs *RouteStats) record(status int, err error, latency time.Duration) {
	if err != nil {
		rs.mu.Lock()
		rs.errors++
		rs.mu.Unlock()
		return
	}
	rs.Hist.Observe(float64(latency))
	class := statusClass(status)
	rs.mu.Lock()
	rs.status[class]++
	rs.mu.Unlock()
}

// statusClass collapses a status code into its class ("2xx" … "5xx").
func statusClass(status int) string {
	switch status / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	}
	return "other"
}

// Status returns a copy of the per-class response counts.
func (rs *RouteStats) Status() map[string]uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string]uint64, len(rs.status))
	for k, v := range rs.status {
		out[k] = v
	}
	return out
}

// Errors returns the transport-failure count.
func (rs *RouteStats) Errors() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.errors
}

// Stats is the client-side result of a run.
type Stats struct {
	// PerOp holds one RouteStats per op kind that appeared in the plan.
	PerOp map[OpKind]*RouteStats
	// Elapsed is the clock time the run spanned, from first intended
	// send to last completion.
	Elapsed time.Duration
}

// RunConfig configures the dispatcher.
type RunConfig struct {
	// MaxInFlight caps concurrently outstanding requests in concurrent
	// mode (≤ 0 means 64). The cap is a client-side resource bound, not
	// a closed loop: an op that waits for a slot is still timed from its
	// intended send time, so saturation shows up as latency — never as
	// silently dropped arrivals.
	MaxInFlight int
	// Sequential executes ops inline in schedule order on the calling
	// goroutine — the deterministic smoke mode. Latencies still measure
	// from intended send times, so a slow op delays (and is charged to)
	// every op queued behind it, exactly as in concurrent mode.
	Sequential bool
	// Clock supplies time; nil uses the wall clock.
	Clock Clock
}

// Run dispatches the plan against tgt on the schedule's intended send
// times and returns the client-side stats.
//
// The loop is open-loop: the dispatcher sleeps until At(i), fires op i,
// and moves on — it never waits for a response before honoring the
// next arrival (concurrent mode), and in both modes the recorded
// latency is completion − intended-send. If the dispatcher itself
// falls behind (every in-flight slot busy, or a sequential op running
// long), the backlog is charged to every delayed op: that is the
// coordinated-omission guarantee.
func Run(ops []Op, sched *Schedule, tgt Target, cfg RunConfig) *Stats {
	clock := cfg.Clock
	if clock == nil {
		clock = WallClock{}
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 64
	}

	st := &Stats{PerOp: make(map[OpKind]*RouteStats)}
	for _, op := range ops {
		if st.PerOp[op.Kind] == nil {
			st.PerOp[op.Kind] = &RouteStats{Hist: &metrics.Histogram{}, status: make(map[string]uint64)}
		}
	}

	start := clock.Now()
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for _, op := range ops {
		intended := start.Add(sched.At(op.Seq))
		if d := intended.Sub(clock.Now()); d > 0 {
			clock.Sleep(d)
		}
		rs := st.PerOp[op.Kind]
		if cfg.Sequential {
			status, err := tgt.Do(op)
			rs.record(status, err, clock.Now().Sub(intended))
			continue
		}
		sem <- struct{}{} // blocks when saturated; latency still runs from intended
		wg.Add(1)
		go func(op Op, intended time.Time, rs *RouteStats) {
			defer wg.Done()
			status, err := tgt.Do(op)
			rs.record(status, err, clock.Now().Sub(intended))
			<-sem
		}(op, intended, rs)
	}
	wg.Wait()
	st.Elapsed = clock.Now().Sub(start)
	return st
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"peerlearn"
	"peerlearn/internal/matchmaker"
)

// The traced run takes spans at the program's public seams only:
//
//   - server.Options.Clock: the middleware reads it once on entry and
//     once after the handler returns, bounding the service window;
//   - matchmaker.Session.SetRoundHook: StageSnapshotted and
//     StageComputed;
//   - a SetPolicyFactory wrapper timing each policy.Group call.
//
// Spans stay in memory and are written out when the run ends. Each
// worker has its own handler and clock, so clock reads need no lookup;
// hook and Group events are kept per session and claimed by the round
// request that was in flight on that session. Two rounds in flight on
// one session at once cannot be told apart, so such rounds are left out
// of the span breakdown (about one lecture round in ten; the kept
// count is trace.round_spans).

// traceClock is a per-worker server.Clock that remembers its reads.
type traceClock struct {
	epoch time.Time
	reads [2]int64
	n     int
}

// Now implements server.Clock.
func (c *traceClock) Now() time.Time {
	t := time.Now()
	if c.n < len(c.reads) {
		c.reads[c.n] = int64(t.Sub(c.epoch))
	}
	c.n++
	return t
}

type evKind uint8

const (
	evSnapshotted evKind = iota
	evComputed
	evGroupStart
	evGroupEnd
)

type event struct {
	kind evKind
	t    int64
}

// sessionTrace collects one session's hook and Group events.
type sessionTrace struct {
	epoch    time.Time
	mu       sync.Mutex
	inflight int
	overlap  bool
	ev       []event
}

func (st *sessionTrace) add(k evKind, t time.Time) {
	ev := event{k, int64(t.Sub(st.epoch))}
	st.mu.Lock()
	st.ev = append(st.ev, ev)
	st.mu.Unlock()
}

// hook is the session's matchmaker.RoundHook.
func (st *sessionTrace) hook(stage matchmaker.RoundStage) {
	k := evSnapshotted
	if stage == matchmaker.StageComputed {
		k = evComputed
	}
	st.add(k, time.Now())
}

// enter marks a round request on the session as in flight.
func (st *sessionTrace) enter() {
	st.mu.Lock()
	st.inflight++
	if st.inflight > 1 {
		st.overlap = true
	}
	st.mu.Unlock()
}

// claim hands the finished round its events and reports whether they
// are unambiguously its own.
func (st *sessionTrace) claim(buf []event) ([]event, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	buf = append(buf[:0], st.ev...)
	st.ev = st.ev[:0]
	clean := !st.overlap
	st.inflight--
	if st.inflight == 0 {
		st.overlap = false
	}
	return buf, clean
}

// timedGrouper times each Group call into a session's trace.
type timedGrouper struct {
	inner peerlearn.Grouper
	st    *sessionTrace
}

func (g timedGrouper) Name() string { return g.inner.Name() }

func (g timedGrouper) Group(s peerlearn.Skills, k int) peerlearn.Grouping {
	//peerlint:allow determinism — a benchmark timer: the stamp never reaches the grouping it returns
	t0 := time.Now()
	out := g.inner.Group(s, k)
	//peerlint:allow determinism — a benchmark timer: the stamp never reaches the grouping it returns
	t1 := time.Now()
	g.st.add(evGroupStart, t0)
	g.st.add(evGroupEnd, t1)
	return out
}

// reqTrace is one traced request.
type reqTrace struct {
	kind     opKind
	due      int64 // dispatcher times, ns since the tracer epoch
	start    int64
	done     int64
	w0, w1   int64 // the middleware's clock window
	events   []event
	attempts int
	// clean rounds carry the four span totals, in ns.
	clean                      bool
	seat, group, apply, commit int64
}

// tracer owns a traced pass's spans.
type tracer struct {
	epoch    time.Time
	mu       sync.Mutex
	sessions map[int64]*sessionTrace
	reqs     []reqTrace // the current segment's
	all      []reqTrace // every finished segment's
	bufs     [][]event
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sessions: map[int64]*sessionTrace{}, bufs: make([][]event, runtime.GOMAXPROCS(0))}
}

// session returns the trace of the session created with the given seed.
func (tr *tracer) session(seed int64) *sessionTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st, ok := tr.sessions[seed]
	if !ok {
		st = &sessionTrace{epoch: tr.epoch}
		tr.sessions[seed] = st
	}
	return st
}

// policyFactory is the server.PolicyFactory of traced runs: the
// production DyGroups policy behind a Group timer. Sessions are created
// with distinct seeds, which key their traces.
func (tr *tracer) policyFactory(name string, mode peerlearn.Mode, seed int64) (peerlearn.Grouper, error) {
	if name != "dygroups" {
		return nil, fmt.Errorf("traced runs serve only dygroups sessions, not %q", name)
	}
	return timedGrouper{inner: peerlearn.NewDyGroups(mode), st: tr.session(seed)}, nil
}

// reset drops the spans recorded so far (the warm-up's).
func (tr *tracer) reset() {
	tr.reqs = tr.reqs[:0]
	tr.mu.Lock()
	for _, st := range tr.sessions {
		st.mu.Lock()
		st.ev = st.ev[:0]
		st.mu.Unlock()
	}
	tr.mu.Unlock()
}

// begin sizes the record table for a phase of n ops.
func (tr *tracer) begin(n int) {
	tr.reqs = make([]reqTrace, n)
}

// record files worker w's finished op i. The dispatcher times are
// filled in after the phase from its timings.
func (tr *tracer) record(s *slot, w, i int) {
	var evs []event
	clean := false
	if s.kind == opRound {
		evs, clean = s.c.trace.claim(tr.bufs[w%len(tr.bufs)])
		tr.bufs[w%len(tr.bufs)] = evs
	}
	if i >= len(tr.reqs) {
		return
	}
	r := &tr.reqs[i]
	r.kind = s.kind
	if s.clock.n != 2 {
		return // the middleware did not bracket this request
	}
	r.w0, r.w1 = s.clock.reads[0], s.clock.reads[1]
	if s.kind != opRound {
		return
	}
	var snaps, computed, g0, g1 []int64
	for _, e := range evs {
		switch e.kind {
		case evSnapshotted:
			snaps = append(snaps, e.t)
		case evComputed:
			computed = append(computed, e.t)
		case evGroupStart:
			g0 = append(g0, e.t)
		case evGroupEnd:
			g1 = append(g1, e.t)
		}
	}
	r.attempts = max(len(snaps), len(g0))
	r.events = append([]event(nil), evs...)
	// A clean optimistic round has one (snapshot, group, computed)
	// triple per attempt; the pessimistic fallback fires no hooks.
	if !clean || len(snaps) == 0 || len(g0) != len(snaps) || len(g1) != len(snaps) || len(computed) != len(snaps) {
		return
	}
	r.clean = true
	r.seat = snaps[0] - r.w0
	for a := range snaps {
		if a > 0 {
			r.seat += snaps[a] - computed[a-1]
		}
		r.group += g1[a] - g0[a]
		r.apply += computed[a] - g1[a]
	}
	r.commit = r.w1 - computed[len(computed)-1]
}

// fill copies the dispatcher's timings into the records.
func (tr *tracer) fill(ts []timing, phaseStart time.Time) {
	off := int64(phaseStart.Sub(tr.epoch))
	for i := range ts {
		if i < len(tr.reqs) {
			tr.reqs[i].due, tr.reqs[i].start, tr.reqs[i].done = ts[i].due+off, ts[i].start+off, ts[i].done+off
		}
	}
}

// write saves every span of the traced pass.
func (tr *tracer) write(path string) error {
	return writeSpans(path, func(emit func(span)) {
		for i, r := range tr.all {
			op := opNames[r.kind]
			emit(span{i, "load." + op, "-", r.due, r.done})
			emit(span{i, "load.lag", "load." + op, r.due, r.start})
			emit(span{i, "server." + op, "load." + op, r.start, r.done})
			if r.w1 == 0 {
				continue
			}
			emit(span{i, "server.window", "server." + op, r.w0, r.w1})
			if !r.clean {
				continue
			}
			prev := r.w0
			for _, e := range r.events {
				switch e.kind {
				case evSnapshotted:
					emit(span{i, "matchmaker.seat", "server.window", prev, e.t})
				case evGroupStart:
					prev = e.t
				case evGroupEnd:
					emit(span{i, "dygroups.group", "server.window", prev, e.t})
					prev = e.t
				case evComputed:
					emit(span{i, "core.apply", "server.window", prev, e.t})
					prev = e.t
				}
			}
			emit(span{i, "matchmaker.commit", "server.window", prev, r.w1})
		}
	})
}

// span is one timed interval of a traced request, in ns since the
// run's epoch. Spans of one request share req; a root span's parent is
// "-".
type span struct {
	req          int
	name, parent string
	start, end   int64
}

// writeSpans saves the spans that each emits as tab-separated lines:
// request, span, parent span, start and end.
func writeSpans(path string, each func(emit func(span))) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tspan\tparent\tstart_ns\tend_ns")
	each(func(s span) {
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\n", s.req, s.name, s.parent, s.start, s.end)
	})
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"peerlearn/internal/server"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median, so one slow set-up does not move it. A traced run's two
// passes set up once each.
const setupRepeats = 3

// timedSegments is how many open-loop segments and saturation blocks
// the timed phase alternates; capacity is the median block rate.
const timedSegments = 10

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// servingRun is what one pass over a serving workload measured.
type servingRun struct {
	setupS     []float64
	floor      []timing
	open       []timing
	resolved   []opKind
	openSecs   float64
	gcs        uint32
	gcCPU      float64
	capacity   float64
	capOps     int
	allocs     map[opKind]allocStat
	walBytes   int64
	recoverS   float64
	replayMS   float64
	replayed   int
	tr         *tracer
	attempted  int64
	failed     int64
	checkFails []string
	// heapMiB is the loaded deployment's footprint after the timed
	// phases (untraced passes only).
	heapMiB float64
}

// allocStat is a route's mean heap allocations per request.
type allocStat struct {
	allocs, bytes float64
	n             int
}

// runServing measures a serving workload: an untraced pass for the
// end-to-end metrics and, with --trace 1, a traced pass after it for
// the per-layer breakdown.
func runServing(spec servingSpec, cfg config, rep *report) error {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", spec.name, cfg.seed))
	u, err := servingPass(spec, cfg, dir, false)
	if err != nil {
		return err
	}
	rep.ops(u.attempted, u.failed)
	for _, p := range u.checkFails {
		rep.fail("%s", p)
	}
	primary := latencies(u.open, classOf(u.resolved, spec.primary))
	rep.set("setup_s", median(u.setupS), len(u.setupS))
	rep.set("p50_us", us(quantile(primary, 0.50)), len(primary))
	rep.set("throughput_per_s", u.capacity, u.capOps)
	rep.set("loaded_heap_mb", u.heapMiB, 1)
	floor := latencies(u.floor, nil)
	floorP50 := us(quantile(floor, 0.5))
	for _, k := range []opKind{opRead, opWrite, opRound} {
		lat := latencies(u.open, classOf(u.resolved, k))
		if len(lat) == 0 {
			continue
		}
		// A latency p50 the dispatcher cannot resolve is not published.
		if p50 := us(quantile(lat, 0.5)); floorP50 > p50/4 {
			rep.fail("%s p50 %.2f us is unresolved: the dispatcher floor p50 is %.2f us", opNames[k], p50, floorP50)
		}
	}
	if !cfg.trace {
		return nil
	}

	t, err := servingPass(spec, cfg, dir, true)
	if err != nil {
		return err
	}
	rep.ops(t.attempted, t.failed)
	for _, p := range t.checkFails {
		rep.fail("traced: %s", p)
	}
	setServingLayers(rep, spec, u, t)
	return t.tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.tsv", spec.name, cfg.seed)))
}

// classOf selects the ops of one reported class; joins and leaves are
// the write class.
func classOf(resolved []opKind, k opKind) func(i int) bool {
	return func(i int) bool {
		c := resolved[i]
		if c == opJoin || c == opLeave {
			c = opWrite
		}
		return c == k
	}
}

// servingPass sets up the workload and runs its phases: dispatcher
// floor, open loop, saturation, the sequential allocation pass, and
// the recovery check.
func servingPass(spec servingSpec, cfg config, dir string, traced bool) (*servingRun, error) {
	r := &servingRun{}
	workers := runtime.GOMAXPROCS(0)
	// setup_s is an end-to-end metric, so only an untraced run's
	// untraced pass sets up more than once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var e *env
	for k := 0; k < repeats; k++ {
		if e != nil {
			e.teardown()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = setupEnv(spec, cfg, dir, traced); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	defer e.teardown()
	runtime.GC()
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	iv := interval(spec.rate)
	n := int(spec.rate * float64(cfg.seconds) * cfg.scale)

	if !traced {
		// Dispatcher floor: the same schedule against a no-op target.
		r.floor, _ = drive(min(n, int(spec.rate)), workers, iv, nullTarget{})
	}

	// The timed phase alternates open-loop segments with saturation
	// blocks, so latency and capacity sample the same stretch of
	// machine time. The traced pass runs only the open-loop segments:
	// saturation and the allocation counts come from the untraced pass.
	capOps := max(int(float64(spec.capacityOps)*float64(cfg.seconds)/10), timedSegments)
	var blockRates []float64
	for seg := 0; seg < timedSegments; seg++ {
		segN := n/timedSegments + boolInt(seg < n%timedSegments)
		open := e.newTarget(makePlan(spec, rng, segN))
		if e.tr != nil {
			e.tr.begin(segN)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := gcCPUSeconds()
		ts, start := drive(segN, workers, iv, open)
		r.openSecs += time.Since(start).Seconds()
		r.gcCPU += gcCPUSeconds() - cpu0
		runtime.ReadMemStats(&ms1)
		r.gcs += ms1.NumGC - ms0.NumGC
		r.open = append(r.open, ts...)
		r.resolved = append(r.resolved, open.resolved...)
		r.count(ts)
		if e.tr != nil {
			e.tr.fill(ts, start)
			e.tr.all = append(e.tr.all, e.tr.reqs...)
		}
		if traced {
			continue
		}
		// Saturation: every worker back to back for a fixed op count.
		capPlan := makePlan(spec, rng, capOps/timedSegments)
		ct, cstart := drive(len(capPlan.kind), workers, 0, e.newTarget(capPlan))
		blockRates = append(blockRates, float64(len(ct))/time.Since(cstart).Seconds())
		r.capOps += len(ct)
		r.count(ct)
	}
	if !traced {
		r.capacity = median(blockRates)
		r.allocs = allocPass(e, spec, r)
	}
	r.verify(e, traced)
	r.tr = e.tr
	return r, nil
}

// count adds a phase's ops to the run's totals.
func (r *servingRun) count(ts []timing) {
	r.attempted += int64(len(ts))
	r.failed += countFailed(ts)
}

// allocPass issues each route sequentially on one goroutine and reads
// the heap counters around it: requests are built before the first
// read, bodies are kept in a preallocated arena, so the deltas are the
// serving path's own allocations.
func allocPass(e *env, spec servingSpec, r *servingRun) map[opKind]allocStat {
	out := map[opKind]allocStat{}
	w := newRespWriter()
	h := e.handler
	var joined []int64
	for _, k := range []opKind{opRead, opJoin, opLeave, opRound} {
		n := spec.allocOps[k]
		if k == opLeave {
			n = len(joined)
		}
		reqs := make([]*http.Request, n)
		for i := range reqs {
			c := e.cohorts[i%len(e.cohorts)]
			var err error
			switch k {
			case opRead:
				reqs[i], err = http.NewRequest(http.MethodGet, c.path, nil)
			case opJoin:
				reqs[i], err = http.NewRequest(http.MethodPost, c.path+"/join",
					strings.NewReader(`{"skill":`+strconv.FormatFloat(skillOf(uint64(i)*0x9e3779b97f4a7c15), 'g', -1, 64)+`}`))
			case opLeave:
				reqs[i], err = http.NewRequest(http.MethodPost, c.path+"/leave",
					strings.NewReader(`{"participant_id":`+strconv.FormatInt(joined[i], 10)+`}`))
			case opRound:
				reqs[i], err = http.NewRequest(http.MethodPost, c.path+"/round", nil)
			default:
				err = fmt.Errorf("op kind %d has no allocation pass", k)
			}
			if err != nil {
				panic(err) // the paths are built by the harness; a bad one is a bug
			}
		}
		arena := make([]byte, 0, 96*n)
		ends := make([]int, 0, n)
		codes := make([]int, 0, n)
		w.reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, req := range reqs {
			w.reset()
			h.ServeHTTP(w, req)
			codes = append(codes, w.code)
			if k == opJoin && len(arena)+w.body.Len() <= cap(arena) {
				arena = append(arena, w.body.Bytes()...)
				ends = append(ends, len(arena))
			}
		}
		runtime.ReadMemStats(&m1)
		r.attempted += int64(n)
		for _, c := range codes {
			if c < 200 || c > 299 {
				r.failed++
			}
		}
		if k == opJoin {
			joined = parseJoined(arena, ends)
			if len(joined) != n {
				r.checkFails = append(r.checkFails, fmt.Sprintf("allocation pass: %d of %d join responses parsed", len(joined), n))
			}
		}
		if n > 0 {
			out[k] = allocStat{
				allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
				bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
				n:      n,
			}
		}
	}
	return out
}

// parseJoined extracts the participant ids from concatenated join
// response bodies.
func parseJoined(arena []byte, ends []int) []int64 {
	var out []int64
	prev := 0
	for _, end := range ends {
		var jr server.JoinResponse
		if err := json.Unmarshal(arena[prev:end], &jr); err == nil && jr.ParticipantID > 0 {
			out = append(out, jr.ParticipantID)
		}
		prev = end
	}
	return out
}

// liveState reads every session's status through h.
func liveState(h http.Handler, cohorts []*cohort) (map[int64]server.SessionStatus, error) {
	w := newRespWriter()
	out := make(map[int64]server.SessionStatus, len(cohorts))
	for _, c := range cohorts {
		var st server.SessionStatus
		if err := call(h, w, http.MethodGet, c.path, "", &st); err != nil {
			if w.code == http.StatusNotFound {
				continue
			}
			return nil, err
		}
		out[c.id] = st
	}
	return out, nil
}

// verify crashes the deployment after the run and recovers a fresh
// store from its journal: every recovered session must match the live
// status bit for bit.
//
// An untraced pass also takes the deployment's footprint here: the live
// heap just before the crash less the live heap just after it. The
// crash drops every session with its roster, matchmaker state and
// journal log; the harness's own data (timings, plans, cohorts) is live
// in both readings, so it cancels.
func (r *servingRun) verify(e *env, traced bool) {
	live, err := liveState(e.handler, e.cohorts)
	if err != nil {
		r.checkFails = append(r.checkFails, fmt.Sprintf("reading live state: %v", err))
		return
	}
	if r.walBytes, err = dirBytes(e.dir); err != nil {
		r.checkFails = append(r.checkFails, fmt.Sprintf("sizing journal: %v", err))
	}
	var loaded int64
	if !traced {
		loaded = liveHeap(2)
	}
	e.store.Crash()
	if !traced {
		r.heapMiB = float64(loaded-liveHeap(2)) / (1 << 20)
	}

	if traced {
		// Journal.LoadSession, timed per session.
		j, err := server.OpenJournal(e.dir)
		if err == nil {
			var ids []int64
			if ids, err = j.SessionIDs(); err == nil {
				t0 := time.Now()
				for _, id := range ids {
					if _, err = j.LoadSession(id); err != nil {
						break
					}
				}
				if len(ids) > 0 {
					r.replayMS = float64(time.Since(t0)) / 1e6 / float64(len(ids))
				}
				r.replayed = len(ids)
			}
		}
		if err != nil {
			r.checkFails = append(r.checkFails, fmt.Sprintf("replaying journal: %v", err))
		}
	}

	fresh := server.NewSessionStore()
	h := server.New(fresh, options())
	j, err := server.OpenJournal(e.dir)
	if err != nil {
		r.checkFails = append(r.checkFails, fmt.Sprintf("reopening journal: %v", err))
		return
	}
	fresh.AttachJournal(j)
	t0 := time.Now()
	n, err := fresh.Recover()
	r.recoverS = time.Since(t0).Seconds()
	defer fresh.Crash()
	if err != nil {
		r.checkFails = append(r.checkFails, fmt.Sprintf("recovering: %v", err))
		return
	}
	recovered, err := liveState(h, e.cohorts)
	if err != nil {
		r.checkFails = append(r.checkFails, fmt.Sprintf("reading recovered state: %v", err))
		return
	}
	r.checkFails = append(r.checkFails, compareRecovered(live, recovered, n)...)
}

// compareRecovered checks recovered session statuses against the live
// ones: the same sessions, and for each the same members, rounds and
// total_gain bits.
func compareRecovered(live, recovered map[int64]server.SessionStatus, n int) []string {
	var out []string
	if n != len(live) {
		out = append(out, fmt.Sprintf("recovered %d sessions, %d were live", n, len(live)))
	}
	for id, l := range live {
		g, ok := recovered[id]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("session %d missing after recovery", id))
		case g.Members != l.Members || g.Rounds != l.Rounds:
			out = append(out, fmt.Sprintf("session %d recovered %d members and %d rounds, live had %d and %d", id, g.Members, g.Rounds, l.Members, l.Rounds))
		case math.Float64bits(g.TotalGain) != math.Float64bits(l.TotalGain):
			out = append(out, fmt.Sprintf("session %d recovered total_gain %x, live had %x", id, math.Float64bits(g.TotalGain), math.Float64bits(l.TotalGain)))
		}
	}
	for id := range recovered {
		if _, ok := live[id]; !ok {
			out = append(out, fmt.Sprintf("session %d recovered but was not live", id))
		}
	}
	return out
}

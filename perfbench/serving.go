package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"peerlearn/internal/metrics"
	"peerlearn/internal/server"
)

// servingSpec is the shape of a serving workload.
type servingSpec struct {
	name      string
	sessions  int
	members   int
	groupSize int
	// clique reports whether session i runs in Clique mode.
	clique func(i int) bool
	// zipf is the popularity exponent of session picks; 0 is uniform.
	zipf float64
	// readPct and writePct split the mix; rounds take the rest.
	readPct, writePct int
	// primary is the request class whose latency p50_us reports: the
	// class the workload exists to exercise.
	primary opKind
	// rate is the open-loop arrival rate, in requests per second.
	rate float64
	// warmup is the discarded open-loop prefix run during set-up.
	warmup time.Duration
	// capacityOps is the op count of the back-to-back saturation phase.
	capacityOps int
	// allocOps is the per-route op count of the sequential allocation
	// pass.
	allocOps map[opKind]int
}

// cohortsSpec: many small cohorts, read-heavy, skewed popularity. The
// middleware, metrics, JSON, store lookup and small WAL appends do
// almost all the work; rank and kernel do almost none.
func cohortsSpec(scale float64) servingSpec {
	return servingSpec{
		name:     "cohorts",
		sessions: scaled(1000, scale, 8), members: 64, groupSize: 4,
		clique:  func(int) bool { return false },
		zipf:    1.1,
		readPct: 80, writePct: 16, primary: opRead,
		rate:        10000,
		warmup:      time.Second,
		capacityOps: scaled(60000, scale, 500),
		allocOps:    map[opKind]int{opRead: scaled(4000, scale, 100), opJoin: scaled(1000, scale, 50), opLeave: scaled(1000, scale, 50), opRound: scaled(1000, scale, 50)},
	}
}

// lectureSpec: a few very large cohorts, round-heavy. Rank over 4 096
// skills, the seat sort, the round kernel and the O(n) round WAL event
// dominate; joins and leaves race rounds on the same sessions.
func lectureSpec(scale float64) servingSpec {
	return servingSpec{
		name:     "lecture",
		sessions: 8, members: scaled(4096, scale, 64), groupSize: 8,
		clique:  func(i int) bool { return i%2 == 1 },
		readPct: 30, writePct: 30, primary: opRound,
		rate:        250,
		warmup:      time.Second,
		capacityOps: scaled(5000, scale, 100),
		allocOps:    map[opKind]int{opRead: scaled(2000, scale, 50), opJoin: scaled(500, scale, 20), opLeave: scaled(500, scale, 20), opRound: scaled(100, scale, 10)},
	}
}

func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

// opKind is a request class of the serving mix.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opRound
	// opJoin and opLeave are what a write resolves to at dispatch: a
	// join when the cohort is at or below its target size, a leave
	// otherwise, so rosters stay near the target.
	opJoin
	opLeave
)

var opNames = [...]string{opRead: "status", opWrite: "write", opRound: "round", opJoin: "join", opLeave: "leave"}

// plan is a seeded op sequence: kind, session index and a random word
// per op (a join's skill, a leave's victim).
type plan struct {
	kind []opKind
	sess []int32
	u    []uint64
}

func makePlan(spec servingSpec, rng *rand.Rand, n int) plan {
	p := plan{kind: make([]opKind, n), sess: make([]int32, n), u: make([]uint64, n)}
	// Popularity rank r maps to a fixed random session, so the hot
	// sessions are not always the lowest ids.
	perm := rng.Perm(spec.sessions)
	var zipf *rand.Zipf
	if spec.zipf > 0 {
		zipf = rand.NewZipf(rng, spec.zipf, 1, uint64(spec.sessions-1))
	}
	for i := 0; i < n; i++ {
		r := 0
		if zipf != nil {
			r = int(zipf.Uint64())
		} else {
			r = rng.Intn(spec.sessions)
		}
		p.sess[i] = int32(perm[r])
		switch x := rng.Intn(100); {
		case x < spec.readPct:
			p.kind[i] = opRead
		case x < spec.readPct+spec.writePct:
			p.kind[i] = opWrite
		default:
			p.kind[i] = opRound
		}
		p.u[i] = rng.Uint64()
	}
	return p
}

// skillOf maps a random word to a positive skill in (0, 1].
func skillOf(u uint64) float64 {
	return float64(u>>11+1) / (1 << 53)
}

// cohort is the harness's view of one session: its id and the
// participant ids it can ask to leave.
type cohort struct {
	id     int64
	path   string
	mu     sync.Mutex
	roster []int64
	trace  *sessionTrace // nil when untraced
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{h: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *respWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// env is one set-up serving deployment: the production handler over a
// journaled session store, and the harness's cohorts.
type env struct {
	spec     servingSpec
	dir      string
	store    *server.SessionStore
	opts     server.Options
	handler  http.Handler
	cohorts  []*cohort
	tr       *tracer // nil when untraced
	handlers []http.Handler
	clocks   []*traceClock
}

// options is the production handler configuration: the daemon's slog
// TextHandler at Info, discarding its output.
func options() server.Options {
	return server.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// setupEnv builds a deployment: store, journal in dir at the default
// SnapshotEvery, handler, sessions and their members created through
// the API, then the discarded warm-up prefix.
func setupEnv(spec servingSpec, cfg config, dir string, traced bool) (*env, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	j, err := server.OpenJournal(dir)
	if err != nil {
		return nil, err
	}
	e := &env{spec: spec, dir: dir, store: server.NewSessionStore(), opts: options()}
	ready := false
	defer func() {
		if !ready {
			e.teardown()
		}
	}()
	workers := runtime.GOMAXPROCS(0)
	if traced {
		e.tr = newTracer()
		e.store.SetPolicyFactory(e.tr.policyFactory)
		// One handler per worker over the shared store, each with its
		// own clock, so every clock read belongs to one worker's
		// request without any lookup on the request path. The handlers
		// share one metrics registry, as the production handler's
		// requests do, so the middleware's metric updates contend as
		// they would there.
		e.opts.Registry = metrics.NewRegistry()
		for w := 0; w < workers; w++ {
			opts := e.opts
			c := &traceClock{epoch: e.tr.epoch}
			opts.Clock = c
			e.clocks = append(e.clocks, c)
			e.handlers = append(e.handlers, server.New(e.store, opts))
		}
		e.handler = e.handlers[0]
	} else {
		e.handler = server.New(e.store, e.opts)
	}
	e.store.AttachJournal(j)

	w := newRespWriter()
	for i := 0; i < spec.sessions; i++ {
		mode := "star"
		if spec.clique(i) {
			mode = "clique"
		}
		body := fmt.Sprintf(`{"group_size":%d,"mode":%q,"algorithm":"dygroups","seed":%d}`, spec.groupSize, mode, i+1)
		var st server.SessionStatus
		if err := call(e.handler, w, http.MethodPost, "/v1/sessions", body, &st); err != nil {
			return nil, fmt.Errorf("creating session %d: %w", i, err)
		}
		c := &cohort{id: st.ID, path: "/v1/sessions/" + strconv.FormatInt(st.ID, 10)}
		if traced {
			c.trace = e.tr.session(int64(i + 1))
			sess, ok := e.store.Session(st.ID)
			if !ok {
				return nil, fmt.Errorf("session %d missing after create", st.ID)
			}
			sess.SetRoundHook(c.trace.hook)
		}
		e.cohorts = append(e.cohorts, c)
	}

	// Members join through the API, the cohorts split across workers.
	rng := rand.New(rand.NewSource(cfg.seed))
	skills := make([][]float64, len(e.cohorts))
	for i := range skills {
		skills[i] = make([]float64, spec.members)
		for m := range skills[i] {
			skills[i][m] = skillOf(rng.Uint64())
		}
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			w, h := newRespWriter(), e.handler
			if traced {
				h = e.handlers[wk]
			}
			for i := wk; i < len(e.cohorts); i += workers {
				c := e.cohorts[i]
				for _, s := range skills[i] {
					var jr server.JoinResponse
					if err := call(h, w, http.MethodPost, c.path+"/join", `{"skill":`+strconv.FormatFloat(s, 'g', -1, 64)+`}`, &jr); err != nil {
						errs[wk] = fmt.Errorf("joining session %d: %w", c.id, err)
						return
					}
					c.roster = append(c.roster, jr.ParticipantID)
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	warm := e.newTarget(makePlan(spec, rng, int(spec.rate*spec.warmup.Seconds()*cfg.scale)+1))
	ts, _ := drive(len(warm.plan.kind), workers, interval(spec.rate), warm)
	if failed := countFailed(ts); failed > 0 {
		return nil, fmt.Errorf("%d warm-up requests failed", failed)
	}
	if e.tr != nil {
		e.tr.reset()
	}
	ready = true
	return e, nil
}

// teardown drops the deployment as a crash would and removes its files.
func (e *env) teardown() {
	e.store.Crash()
	_ = os.RemoveAll(e.dir) // best effort: the directory is scratch
}

func interval(rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}

// call issues one request through h and decodes a 2xx JSON body into out.
func call(h http.Handler, w *respWriter, method, path, body string, out any) error {
	w.reset()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		return err
	}
	h.ServeHTTP(w, req)
	if w.code < 200 || w.code > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, w.code, strings.TrimSpace(w.body.String()))
	}
	if out != nil {
		if err := json.Unmarshal(w.body.Bytes(), out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// serveTarget drives a plan through the deployment.
type serveTarget struct {
	e    *env
	plan plan
	// resolved is each op's kind after dispatch: a write becomes a
	// join or a leave.
	resolved []opKind
	slots    []slot
}

// slot is one worker's in-flight op.
type slot struct {
	w      *respWriter
	h      http.Handler
	clock  *traceClock
	req    *http.Request
	kind   opKind
	c      *cohort
	leaver int64
	rec    *reqTrace // traced runs only
}

func (e *env) newTarget(p plan) *serveTarget {
	t := &serveTarget{e: e, plan: p, resolved: make([]opKind, len(p.kind))}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		s := slot{w: newRespWriter(), h: e.handler}
		if e.tr != nil {
			s.h, s.clock = e.handlers[w], e.clocks[w]
		}
		t.slots = append(t.slots, s)
	}
	return t
}

func (t *serveTarget) prepare(w, i int) {
	s := &t.slots[w]
	s.c = t.e.cohorts[t.plan.sess[i]]
	s.kind = t.plan.kind[i]
	u := t.plan.u[i]
	var err error
	switch s.kind {
	case opRead:
		s.req, err = http.NewRequest(http.MethodGet, s.c.path, nil)
	case opRound:
		s.req, err = http.NewRequest(http.MethodPost, s.c.path+"/round", nil)
	case opWrite:
		s.c.mu.Lock()
		if n := len(s.c.roster); n > t.e.spec.members {
			k := int(u % uint64(n))
			s.leaver = s.c.roster[k]
			s.c.roster[k] = s.c.roster[n-1]
			s.c.roster = s.c.roster[:n-1]
			s.kind = opLeave
		} else {
			s.kind = opJoin
		}
		s.c.mu.Unlock()
		if s.kind == opLeave {
			s.req, err = http.NewRequest(http.MethodPost, s.c.path+"/leave",
				strings.NewReader(`{"participant_id":`+strconv.FormatInt(s.leaver, 10)+`}`))
		} else {
			s.req, err = http.NewRequest(http.MethodPost, s.c.path+"/join",
				strings.NewReader(`{"skill":`+strconv.FormatFloat(skillOf(u), 'g', -1, 64)+`}`))
		}
	default:
		err = fmt.Errorf("op kind %d is not planned", s.kind)
	}
	if err != nil {
		panic(err) // the paths are built by the harness; a bad one is a bug
	}
	t.resolved[i] = s.kind
	s.w.reset()
	if s.clock != nil {
		s.clock.n = 0
		if s.kind == opRound {
			s.c.trace.enter()
		}
	}
}

func (t *serveTarget) serve(w int) {
	s := &t.slots[w]
	s.h.ServeHTTP(s.w, s.req)
}

func (t *serveTarget) finish(w, i int) bool {
	s := &t.slots[w]
	if s.clock != nil {
		t.e.tr.record(s, w, i)
	}
	if s.w.code < 200 || s.w.code > 299 {
		return false
	}
	body := s.w.body.Bytes()
	switch s.kind {
	case opRead:
		var st server.SessionStatus
		return json.Unmarshal(body, &st) == nil && st.ID == s.c.id && st.Members >= t.e.spec.members
	case opJoin:
		var jr server.JoinResponse
		if json.Unmarshal(body, &jr) != nil || jr.ParticipantID < 1 {
			return false
		}
		s.c.mu.Lock()
		s.c.roster = append(s.c.roster, jr.ParticipantID)
		s.c.mu.Unlock()
		return true
	case opLeave:
		var m map[string]string
		return json.Unmarshal(body, &m) == nil && m["status"] == "left"
	case opRound:
		var rr server.RoundResponse
		g := t.e.spec.groupSize
		return json.Unmarshal(body, &rr) == nil && rr.Round >= 1 && rr.Participated >= g &&
			rr.Participated%g == 0 && rr.Groups == rr.Participated/g &&
			rr.Gain >= 0 && !math.IsInf(rr.Gain, 0)
	default:
		return false
	}
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []runtimemetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() != runtimemetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// median of a small slice of float64s.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

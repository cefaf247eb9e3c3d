package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"peerlearn"
)

// The simulate workload is the library path with no server: full
// DyGroups runs at the n = 10⁶, k = 5, α = 16 shape in both modes, and
// a fixed batch of serial anneals at n = 10⁴, k = 500 in both modes.
const (
	simN      = 1_000_000
	simK      = 5
	simRounds = 16
	annealN   = 10_000
	annealK   = 500
	simRate   = 0.5
)

// pinnedGains are the Star and Clique TotalGain bits of one run at
// --seed 1 and full size. A change to the kernel or the policy that
// alters a single bit of the result fails the run.
var pinnedGains = map[peerlearn.Mode]uint64{
	peerlearn.Star:   0x41764a3c395abd71,
	peerlearn.Clique: 0x4169f122d661f920,
}

// simSizes is the workload's shape at a scale.
type simSizes struct {
	n, annealN, annealK   int
	runPairs, annealPairs int
}

func simulateSizes(cfg config) simSizes {
	an := scaled(annealN, cfg.scale, 200)
	return simSizes{
		n:           scaled(simN, cfg.scale, 1000),
		annealN:     an,
		annealK:     an / (annealN / annealK),
		runPairs:    max(1, cfg.seconds/5),
		annealPairs: max(4, cfg.seconds*3),
	}
}

// simInputs are the generated inputs of one simulate run.
type simInputs struct {
	skills  peerlearn.Skills
	anneals []peerlearn.Skills
}

// lognormal returns n skills drawn from the paper's log-normal setting,
// exp(N(1, 0.5)).
func lognormal(rng *rand.Rand, n int) peerlearn.Skills {
	s := make(peerlearn.Skills, n)
	for i := range s {
		s[i] = math.Exp(1 + 0.5*rng.NormFloat64())
	}
	return s
}

func makeSimInputs(cfg config, sz simSizes) simInputs {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := simInputs{skills: lognormal(rng, sz.n)}
	for i := 0; i < sz.annealPairs; i++ {
		in.anneals = append(in.anneals, lognormal(rng, sz.annealN))
	}
	return in
}

// simRun is what one pass over the simulate workload measured.
type simRun struct {
	setupS []float64
	// rate is participant-rounds per second: both modes' median round
	// times, over every round of every timed run.
	rate float64
	// pairCPU and annealMS are CPU times of the thread that ran the
	// anneals.
	pairCPU    []int64
	annealMS   map[peerlearn.Mode][]float64
	annealGain float64
	groupMS    map[peerlearn.Mode][]float64
	roundMS    map[peerlearn.Mode][]float64
	attempted  int64
	problems   []string
	// heapMiB is each set-up's footprint: the larger of the two warm-up
	// runs' live heap in their last round, less the inputs.
	heapMiB []float64
	spans   simSpans
	// annealGroupings are kept for the recomputation check.
	annealGroupings []annealResult
}

func runSimulate(cfg config, rep *report) error {
	sz := simulateSizes(cfg)
	u := simulatePass(cfg, sz, false)
	rep.ops(u.attempted, int64(len(u.problems)))
	for _, p := range u.problems {
		rep.fail("%s", p)
	}
	rep.set("setup_s", median(u.setupS), len(u.setupS))
	rep.set("p50_us", us(quantile(u.pairCPU, 0.5)), len(u.pairCPU))
	rep.set("loaded_heap_mb", median(u.heapMiB), len(u.heapMiB))
	rep.set("throughput_per_s", u.rate, len(u.roundMS[peerlearn.Star])+len(u.roundMS[peerlearn.Clique]))
	if !cfg.trace {
		return nil
	}
	t := simulatePass(cfg, sz, true)
	rep.ops(t.attempted, int64(len(t.problems)))
	for _, p := range t.problems {
		rep.fail("traced: %s", p)
	}
	rep.set("sim_mpr_per_s", u.rate/1e6, len(u.roundMS[peerlearn.Star])+len(u.roundMS[peerlearn.Clique]))
	var all []float64
	for _, m := range []peerlearn.Mode{peerlearn.Star, peerlearn.Clique} {
		all = append(all, u.annealMS[m]...)
	}
	rep.set("anneal_ms", mean(all), len(all))
	rep.set("anneal_gain", u.annealGain, len(all))
	for m, name := range map[peerlearn.Mode]string{peerlearn.Star: "star", peerlearn.Clique: "clique"} {
		rep.set("dygroups."+name+"_group_ms", median(t.groupMS[m]), len(t.groupMS[m]))
		rest := make([]float64, len(t.groupMS[m]))
		for i := range rest {
			rest[i] = t.roundMS[m][i] - t.groupMS[m][i]
		}
		rep.set("core."+name+"_round_ms", median(rest), len(rest))
		rep.set("baselines.anneal_"+name+"_ms", mean(t.annealMS[m]), len(t.annealMS[m]))
	}
	rep.set("trace.overhead_pct", 100*(u.rate/t.rate-1), len(t.roundMS[peerlearn.Star])+len(t.roundMS[peerlearn.Clique]))
	return t.spans.write(filepath.Join(cfg.outDir, fmt.Sprintf("simulate-seed%d.spans.tsv", cfg.seed)))
}

// simulatePass sets up (three times untraced, keeping the last inputs),
// runs the timed Star and Clique runs and the anneal batch, and checks
// every output.
func simulatePass(cfg config, sz simSizes, traced bool) *simRun {
	r := &simRun{
		annealMS: map[peerlearn.Mode][]float64{},
		groupMS:  map[peerlearn.Mode][]float64{},
		roundMS:  map[peerlearn.Mode][]float64{},
	}
	// setup_s is an end-to-end metric, so only an untraced run's
	// untraced pass sets up more than once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var in simInputs
	for k := 0; k < repeats; k++ {
		in = simInputs{}
		runtime.GC()
		t0 := time.Now()
		in = makeSimInputs(cfg, sz)
		// The discarded warm-up runs also check that no skill ever
		// decreases from one round to the next, and measure the
		// program's footprint.
		var footprint int64
		for _, m := range []peerlearn.Mode{peerlearn.Star, peerlearn.Clique} {
			mg := &monotoneGrouper{inner: peerlearn.NewDyGroups(m), rounds: simRounds}
			mg.base = liveHeap(2)
			res, err := peerlearn.Run(simConfig(m), in.skills, mg)
			r.attempted++
			r.checkRun(cfg, sz, m, res, err)
			mg.finish(res)
			r.problems = append(r.problems, mg.problems...)
			footprint = max(footprint, mg.footprint)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.heapMiB = append(r.heapMiB, float64(footprint)/(1<<20))
	}
	runtime.GC()

	// The timed phase alternates Star and Clique runs, each followed by
	// a slice of the anneal batch, so both halves sample the same
	// stretch of machine time.
	gain := peerlearn.MustLinear(simRate)
	runs := 2 * sz.runPairs
	perSlice := (len(in.anneals) + runs - 1) / runs
	for run := 0; run < runs; run++ {
		m := []peerlearn.Mode{peerlearn.Star, peerlearn.Clique}[run%2]
		rt := &roundTimer{inner: peerlearn.NewDyGroups(m)}
		res, err := peerlearn.Run(simConfig(m), in.skills, rt)
		rt.stop()
		r.attempted++
		r.checkRun(cfg, sz, m, res, err)
		r.roundMS[m] = append(r.roundMS[m], rt.roundMS()...)
		r.groupMS[m] = append(r.groupMS[m], rt.groupMS()...)
		if traced {
			r.spans.run(m, rt)
		}
		// The anneal batch: one Star and one Clique anneal per
		// instance, issued back to back, so each pair is due when the
		// previous one ends.
		for i := run * perSlice; i < min((run+1)*perSlice, len(in.anneals)); i++ {
			r.annealPair(cfg, sz, i, in.anneals[i], gain, traced)
		}
	}
	r.rate = float64(sz.n) * 2 / ((median(r.roundMS[peerlearn.Star]) + median(r.roundMS[peerlearn.Clique])) / 1e3)
	r.problems = append(r.problems, checkAnnealGain(in, r.annealGroupings, gain, r.annealGain)...)
	return r
}

// annealPair anneals instance i in both modes and checks the groupings.
// The serial annealer runs on the calling goroutine, which stays on one
// thread, so the thread's CPU time is the anneals' cost without the
// time the thread waited for a CPU: that wait is the machine's load,
// not the program's.
func (r *simRun) annealPair(cfg config, sz simSizes, i int, inst peerlearn.Skills, gain peerlearn.Gain, traced bool) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pair := threadCPU()
	for _, m := range []peerlearn.Mode{peerlearn.Star, peerlearn.Clique} {
		as, cpu := time.Now(), threadCPU()
		g := peerlearn.NewAnnealing(cfg.seed*1_000_003+int64(i), m, gain).Group(inst, sz.annealK)
		r.annealMS[m] = append(r.annealMS[m], float64(threadCPU()-cpu)/1e6)
		if traced {
			r.spans.add("baselines.anneal."+m.String(), "-", as, time.Now())
		}
		r.attempted++
		if err := g.ValidateEqui(sz.annealN, sz.annealK); err != nil {
			r.problems = append(r.problems, fmt.Sprintf("anneal %d (%v): %v", i, m, err))
			continue
		}
		r.annealGain += peerlearn.AggregateGain(inst, g, m, gain)
		r.annealGroupings = append(r.annealGroupings, annealResult{inst: i, mode: m, g: g})
	}
	r.pairCPU = append(r.pairCPU, threadCPU()-pair)
}

// threadCPU is the calling thread's CPU time in ns. Time the thread
// spends runnable but descheduled does not count, nor, on kernels that
// account steal time, time the hypervisor takes.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // CLOCK_THREAD_CPUTIME_ID is always present on Linux
	}
	return ts.Nano()
}

func simConfig(m peerlearn.Mode) peerlearn.Config {
	return peerlearn.Config{K: simK, Rounds: simRounds, Mode: m, Gain: peerlearn.MustLinear(simRate)}
}

// checkRun checks one DyGroups run: the objective equals the skill
// growth, no skill decreased, and at --seed 1 and full size the gain
// matches the pinned bits.
func (r *simRun) checkRun(cfg config, sz simSizes, m peerlearn.Mode, res *peerlearn.Result, err error) {
	if p := checkResult(res, err); p != "" {
		r.problems = append(r.problems, fmt.Sprintf("%v run: %s", m, p))
		return
	}
	if p := checkPinned(cfg, sz, m, res.TotalGain); p != "" {
		r.problems = append(r.problems, p)
	}
}

// checkPinned compares a full-size run's TotalGain at --seed 1 with
// the pinned bits.
func checkPinned(cfg config, sz simSizes, m peerlearn.Mode, gain float64) string {
	if cfg.seed != 1 || sz.n != simN {
		return ""
	}
	if got, want := math.Float64bits(gain), pinnedGains[m]; got != want {
		return fmt.Sprintf("%v run: TotalGain bits %#x, pinned %#x", m, got, want)
	}
	return ""
}

// checkResult checks a run's outputs: TotalGain equals
// Final.Sum() − Initial.Sum() within tolerance, and no participant ends
// below their initial skill.
func checkResult(res *peerlearn.Result, err error) string {
	if err != nil {
		return err.Error()
	}
	if len(res.Final) != len(res.Initial) || len(res.Final) == 0 {
		return fmt.Sprintf("final has %d skills, initial %d", len(res.Final), len(res.Initial))
	}
	growth := res.Final.Sum() - res.Initial.Sum()
	if math.Abs(res.TotalGain-growth) > 1e-9*math.Max(1, math.Abs(growth)) {
		return fmt.Sprintf("TotalGain %v differs from the skill growth %v", res.TotalGain, growth)
	}
	for i := range res.Final {
		if res.Final[i] < res.Initial[i] {
			return fmt.Sprintf("participant %d ended at %v below their initial %v", i, res.Final[i], res.Initial[i])
		}
	}
	return ""
}

// annealResult is one anneal's grouping, kept for the recomputation.
type annealResult struct {
	inst int
	mode peerlearn.Mode
	g    peerlearn.Grouping
}

// checkAnnealGain recomputes every anneal's objective with a fresh
// workspace and checks that the sum is the reported anneal_gain.
func checkAnnealGain(in simInputs, results []annealResult, gain peerlearn.Gain, reported float64) []string {
	ws := peerlearn.NewWorkspace()
	var total float64
	for _, a := range results {
		if err := a.g.ValidateEqui(len(in.anneals[a.inst]), len(a.g)); err != nil {
			return []string{fmt.Sprintf("anneal %d (%v): %v", a.inst, a.mode, err)}
		}
		total += ws.AggregateGain(in.anneals[a.inst], a.g, a.mode, gain)
	}
	if math.Abs(total-reported) > 1e-9*math.Max(1, math.Abs(total)) {
		return []string{fmt.Sprintf("anneal_gain %v, recomputed %v", reported, total)}
	}
	return nil
}

// monotoneGrouper wraps a policy and checks, at every round, that no
// skill decreased since the previous round. In round rounds, after the
// policy returns, it also reads the live heap: the run's skills and
// workspace and the grouping are all held then. Less base (the heap
// before the run, inputs included) and its own copy of the skills, that
// is the program's footprint. Scratch parked in a sync.Pool is left
// out: the runtime keeps one per P that used it, so how much of it is
// live depends on where the scheduler ran each round.
type monotoneGrouper struct {
	inner     peerlearn.Grouper
	prev      peerlearn.Skills
	round     int
	problems  []string
	rounds    int
	base      int64
	footprint int64
}

func (g *monotoneGrouper) Name() string { return g.inner.Name() }

func (g *monotoneGrouper) Group(s peerlearn.Skills, k int) peerlearn.Grouping {
	g.check(s)
	g.round++
	out := g.inner.Group(s, k)
	if g.round == g.rounds {
		g.footprint = liveHeap(2) - g.base - int64(8*cap(g.prev))
	}
	return out
}

func (g *monotoneGrouper) check(s peerlearn.Skills) {
	if g.prev != nil {
		for i := range s {
			if s[i] < g.prev[i] {
				g.problems = append(g.problems, fmt.Sprintf("%s: participant %d decreased in round %d", g.inner.Name(), i, g.round))
				break
			}
		}
	}
	g.prev = append(g.prev[:0], s...)
}

// finish checks the last round's update.
func (g *monotoneGrouper) finish(res *peerlearn.Result) {
	if res != nil {
		g.check(res.Final)
	}
}

// roundTimer wraps the facade's DyGroups and stamps the start and the
// return of each Group call, splitting a round into the policy's Group
// time and the rest of core.Run's round.
type roundTimer struct {
	inner   peerlearn.Grouper
	starts  []time.Time
	groupNS []int64
	end     time.Time
}

func (g *roundTimer) Name() string { return g.inner.Name() }

func (g *roundTimer) Group(s peerlearn.Skills, k int) peerlearn.Grouping {
	//peerlint:allow determinism — a benchmark timer: the stamp never reaches the grouping it returns
	t0 := time.Now()
	g.starts = append(g.starts, t0)
	out := g.inner.Group(s, k)
	//peerlint:allow determinism — a benchmark timer: the stamp never reaches the grouping it returns
	g.groupNS = append(g.groupNS, int64(time.Since(t0)))
	return out
}

// stop marks the end of the run's last round.
func (g *roundTimer) stop() { g.end = time.Now() }

// roundMS is each round's wall time: from its Group call to the next
// round's, or to the end of the run.
func (g *roundTimer) roundMS() []float64 {
	out := make([]float64, len(g.starts))
	for i, t := range g.starts {
		next := g.end
		if i+1 < len(g.starts) {
			next = g.starts[i+1]
		}
		out[i] = float64(next.Sub(t)) / 1e6
	}
	return out
}

func (g *roundTimer) groupMS() []float64 {
	out := make([]float64, len(g.groupNS))
	for i, ns := range g.groupNS {
		out[i] = float64(ns) / 1e6
	}
	return out
}

// simSpans are the traced simulate pass's spans: each run with its
// rounds and their Group calls, and each anneal, in ns since the first.
// A root span (parent "-") closes its request; its children precede it.
type simSpans struct {
	epoch time.Time
	spans []span
	req   int
}

func (sp *simSpans) add(name, parent string, start, end time.Time) {
	if sp.epoch.IsZero() {
		sp.epoch = start
	}
	sp.spans = append(sp.spans, span{req: sp.req, name: name, parent: parent, start: int64(start.Sub(sp.epoch)), end: int64(end.Sub(sp.epoch))})
	if parent == "-" {
		sp.req++
	}
}

// run records one timed run: the run, each round, each Group call.
func (sp *simSpans) run(m peerlearn.Mode, rt *roundTimer) {
	if len(rt.starts) == 0 {
		return
	}
	run := "core.run." + m.String()
	for i, t := range rt.starts {
		next := rt.end
		if i+1 < len(rt.starts) {
			next = rt.starts[i+1]
		}
		sp.add("core.round", run, t, next)
		sp.add("dygroups.group", "core.round", t, t.Add(time.Duration(rt.groupNS[i])))
	}
	sp.add(run, "-", rt.starts[0], rt.end)
}

func (sp *simSpans) write(path string) error {
	return writeSpans(path, func(emit func(span)) {
		for _, s := range sp.spans {
			emit(s)
		}
	})
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

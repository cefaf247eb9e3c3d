package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"peerlearn"
	"peerlearn/internal/server"
)

// testScale runs every workload at a small fraction of its real shape.
const testScale = 0.02

// TestReducedRuns runs each workload, untraced and traced, at reduced
// size and requires every output check to pass and every metric of the
// run's kind to be printed.
func TestReducedRuns(t *testing.T) {
	for _, wl := range []string{"cohorts", "lecture", "simulate"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 1, trace: traced, scale: testScale, outDir: t.TempDir()}
			rep, err := execute(cfg, workloads[wl])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if len(rep.problems) > 0 || rep.failed > 0 {
				t.Fatalf("%s trace=%v: %d failed ops, problems %q", wl, traced, rep.failed, rep.problems)
			}
			var out bytes.Buffer
			if err := emit(cfg, rep, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d metrics=%d want %d", wl, traced, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != metricDefs[name].unit {
					t.Errorf("%s: metric %s missing or mis-united: %+v", wl, name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", wl, name, m.Value)
				}
			}
		}
	}
}

func TestCompareRecoveredRejectsCorruption(t *testing.T) {
	live := map[int64]server.SessionStatus{
		1: {ID: 1, Members: 64, Rounds: 3, TotalGain: 1.25},
		2: {ID: 2, Members: 65, Rounds: 0, TotalGain: 0},
	}
	clone := func() map[int64]server.SessionStatus {
		out := map[int64]server.SessionStatus{}
		for k, v := range live {
			out[k] = v
		}
		return out
	}
	if p := compareRecovered(live, clone(), 2); len(p) != 0 {
		t.Fatalf("identical state rejected: %q", p)
	}
	flipped := clone()
	s := flipped[1]
	s.TotalGain = math.Float64frombits(math.Float64bits(s.TotalGain) ^ 1)
	flipped[1] = s
	missing := clone()
	delete(missing, 2)
	rounds := clone()
	s = rounds[1]
	s.Rounds++
	rounds[1] = s
	for name, rec := range map[string]map[int64]server.SessionStatus{"flipped gain bit": flipped, "missing session": missing, "round count": rounds} {
		if p := compareRecovered(live, rec, len(rec)); len(p) == 0 {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFailedRequestIsCounted(t *testing.T) {
	ts, _ := drive(3, 1, 0, failingTarget{})
	if got := countFailed(ts); got != 3 {
		t.Fatalf("failed = %d, want 3", got)
	}
	for _, x := range ts {
		if x.latency() != maxLatency {
			t.Fatalf("a failed op's latency is %d, want it to miss every limit", x.latency())
		}
	}
	rep := newReport()
	rep.ops(3, 1)
	for _, name := range endToEnd {
		rep.set(name, 1, 1)
	}
	var out bytes.Buffer
	if err := emit(config{workload: "cohorts"}, rep, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("a run with a failed request printed %s", out.String())
	}
}

// failingTarget fails every op, one of them by panicking.
type failingTarget struct{}

func (failingTarget) prepare(w, i int) {}
func (failingTarget) serve(w int)      {}
func (failingTarget) finish(w, i int) bool {
	if i == 1 {
		panic("handler blew up")
	}
	return false
}

func TestServeTargetRejectsBadResponses(t *testing.T) {
	spec := cohortsSpec(testScale)
	e := &env{spec: spec, cohorts: []*cohort{{id: 7, path: "/v1/sessions/7"}}}
	tg := e.newTarget(plan{kind: []opKind{opRead}, sess: []int32{0}, u: []uint64{0}})
	tg.prepare(0, 0)
	for _, c := range []struct {
		code int
		body string
	}{
		{500, `{"error":"internal server error"}`},
		{200, `{"id":7,"members":`},
		{200, `{"id":8,"members":64,"rounds":0,"total_gain":0}`},
	} {
		s := &tg.slots[0]
		s.w.reset()
		s.w.WriteHeader(c.code)
		s.w.Write([]byte(c.body))
		if tg.finish(0, 0) {
			t.Errorf("status %d body %s accepted", c.code, c.body)
		}
	}
}

func TestSimulateChecksRejectCorruption(t *testing.T) {
	skills := peerlearn.Skills{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	cfg := peerlearn.Config{K: 2, Rounds: 3, Mode: peerlearn.Star, Gain: peerlearn.MustLinear(0.5)}
	res, err := peerlearn.Run(cfg, skills, peerlearn.NewDyGroupsStar())
	if err != nil {
		t.Fatal(err)
	}
	if p := checkResult(res, nil); p != "" {
		t.Fatalf("a correct run rejected: %s", p)
	}
	bad := *res
	bad.TotalGain *= 1.5
	if checkResult(&bad, nil) == "" {
		t.Error("a TotalGain off the skill growth was accepted")
	}
	bad = *res
	bad.Final = res.Final.Clone()
	bad.Final[0] = res.Initial[0] / 2
	bad.TotalGain = bad.Final.Sum() - bad.Initial.Sum()
	if checkResult(&bad, nil) == "" {
		t.Error("a decreased skill was accepted")
	}

	// The pinned bits catch a single flipped bit that the tolerance
	// check cannot see.
	full := simSizes{n: simN}
	for _, m := range []peerlearn.Mode{peerlearn.Star, peerlearn.Clique} {
		if p := checkPinned(config{seed: 1}, full, m, math.Float64frombits(pinnedGains[m])); p != "" {
			t.Fatalf("the pinned value itself rejected: %s", p)
		}
		if checkPinned(config{seed: 1}, full, m, math.Float64frombits(pinnedGains[m]^1)) == "" {
			t.Errorf("%v: a flipped TotalGain bit at the pinned seed was accepted", m)
		}
	}

	// Anneal groupings: recomputed gains must match the reported sum.
	in := simInputs{anneals: []peerlearn.Skills{skills}}
	g := peerlearn.Grouping{{0, 1, 2}, {3, 4, 5}}
	gain := peerlearn.MustLinear(0.5)
	sum := peerlearn.AggregateGain(skills, g, peerlearn.Star, gain)
	ok := []annealResult{{inst: 0, mode: peerlearn.Star, g: g}}
	if p := checkAnnealGain(in, ok, gain, sum); len(p) != 0 {
		t.Fatalf("a correct anneal rejected: %q", p)
	}
	if p := checkAnnealGain(in, ok, gain, math.Float64frombits(math.Float64bits(sum)^(1<<40))); len(p) == 0 {
		t.Error("a corrupted anneal_gain was accepted")
	}
	broken := []annealResult{{inst: 0, mode: peerlearn.Star, g: peerlearn.Grouping{{0, 1, 2}, {3, 4, 4}}}}
	if p := checkAnnealGain(in, broken, gain, sum); len(p) == 0 {
		t.Error("an invalid anneal grouping was accepted")
	}
}

func TestMonotoneGrouperRejectsDecrease(t *testing.T) {
	g := &monotoneGrouper{inner: peerlearn.NewDyGroupsStar()}
	g.Group(peerlearn.Skills{0.5, 0.6, 0.7, 0.8}, 2)
	g.Group(peerlearn.Skills{0.5, 0.59, 0.7, 0.8}, 2)
	if len(g.problems) == 0 {
		t.Fatal("a decreased skill was accepted")
	}
}

// TestFootprintIsTheRunsOwn checks that the simulate footprint counts
// what a run holds (at least its working skills and the Initial clone)
// and not what the harness holds: a large slice kept live across the
// run does not change it.
func TestFootprintIsTheRunsOwn(t *testing.T) {
	const n = 100_000
	skills := lognormal(rand.New(rand.NewSource(1)), n)
	measure := func() int64 {
		mg := &monotoneGrouper{inner: peerlearn.NewDyGroups(peerlearn.Star), rounds: simRounds}
		mg.base = liveHeap(2)
		if _, err := peerlearn.Run(simConfig(peerlearn.Star), skills, mg); err != nil {
			t.Fatal(err)
		}
		return mg.footprint
	}
	alone := measure()
	if alone < 2*8*n {
		t.Fatalf("footprint %d B is below the run's two skill vectors (%d B)", alone, 2*8*n)
	}
	held := make([]float64, 4*n)
	withHeld := measure()
	runtime.KeepAlive(held)
	if d := withHeld - alone; d > n || d < -n {
		t.Fatalf("harness data moved the footprint by %d B (%d alone, %d with it)", d, alone, withHeld)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, names []string, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(names))
			return
		}
		for i, m := range got {
			d := metricDefs[m.Name]
			if m.Name != names[i] || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %s %+v", kind, i, m, names[i], d)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range b.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, b.PerLayer)
}

func TestQuantile(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %d, want 5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty p50 = %d", q)
	}
}

func TestWaitUntilDoesNotReturnEarly(t *testing.T) {
	for _, d := range []time.Duration{0, 50 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(d)
		waitUntil(due)
		if time.Now().Before(due) {
			t.Fatalf("waitUntil(%v) returned early", d)
		}
	}
}

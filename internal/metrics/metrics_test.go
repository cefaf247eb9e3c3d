package metrics

import (
	"math"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if got := r.Counter("test_total", "a counter"); got != c {
		t.Fatal("get-or-create returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	g := r.Gauge("test_gauge", "a gauge")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(5)
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}
	g.Set(-2)
	if !strings.Contains(expose(t, r), "test_gauge -2\n") {
		t.Fatalf("exposition missing negative gauge:\n%s", expose(t, r))
	}
}

// TestHistogramBuckets pins the log-linear layout: exact buckets for
// small integers, 32 steps per power of two above, lower bounds never
// above the value and within 1/32 of it, and clamping at both ends.
func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ v, lower float64 }{
		{0, 0},
		{1, 1},
		{63, 63},
		{65, 64},           // step 2 from 64
		{500, 496},         // step 8 from 256
		{0.75, 0.75},       // fractions resolve like integers
		{0.1, 0.099609375}, // 51·2^-9
		{20e-6, 19.550323486328125e-6},
		{1e-12, 0}, // below 2^-32: shares the zero bucket
		{math.MaxFloat64, math.Ldexp(63, 58)},
		{math.Inf(1), math.Ldexp(63, 58)}, // clamps to the top bucket
	} {
		//peerlint:allow floateq — bucket bounds are exact dyadic values, pinned bit for bit
		if got := bucketLower(bucketOf(c.v)); got != c.lower {
			t.Errorf("bucketLower(bucketOf(%g)) = %g, want %g", c.v, got, c.lower)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo, prev := bucketLower(i), bucketLower(i-1)
		if lo <= prev {
			t.Fatalf("bucketLower(%d) = %g not above bucketLower(%d) = %g", i, lo, i-1, prev)
		}
		if i > 1 && lo-prev > prev/32 {
			t.Fatalf("bucket %d width %g exceeds 1/32 of %g", i-1, lo-prev, prev)
		}
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(bucketLower(%d)) = %d", i, got)
		}
	}
}

// TestHistogramExposition checks the derived le bounds: one per power
// of two across the occupied range, cumulative, closed by +Inf.
func TestHistogramExposition(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("test_hist", "a histogram")
	if out := expose(t, r); !strings.Contains(out, "test_hist_bucket{le=\"+Inf\"} 0\ntest_hist_sum 0\ntest_hist_count 0\n") {
		t.Errorf("empty histogram exposition:\n%s", out)
	}
	for _, v := range []float64{0.3, 1, 1.5, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5.8 {
		t.Fatalf("count, sum = %d, %v; want 4, 5.8", h.Count(), h.Sum())
	}
	want := strings.Join([]string{
		`test_hist_bucket{le="0.5"} 1`,
		`test_hist_bucket{le="1"} 1`, // buckets are half-open: 1 counts toward 2
		`test_hist_bucket{le="2"} 3`,
		`test_hist_bucket{le="4"} 4`,
		`test_hist_bucket{le="+Inf"} 4`,
		`test_hist_sum 5.8`,
		`test_hist_count 4`,
	}, "\n") + "\n"
	if out := expose(t, r); !strings.Contains(out, want) {
		t.Errorf("exposition missing\n%s\ngot:\n%s", want, out)
	}

	// The top power of two also holds clamped values, so only +Inf
	// bounds it.
	top := r.Histogram("test_top", "huge values")
	top.Observe(math.Inf(1))
	if out := expose(t, r); !strings.Contains(out, "# TYPE test_top histogram\ntest_top_bucket{le=\"+Inf\"} 1\n") {
		t.Errorf("clamped value exposition:\n%s", out)
	}
}

// TestHistogramMinMaxMerge covers the exact extremes, the clamping of
// negative and NaN values, and Merge.
func TestHistogramMinMaxMerge(t *testing.T) {
	t.Parallel()
	h := &Histogram{}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty min/max = %g/%g, want 0/0", h.Min(), h.Max())
	}
	h.Observe(2.5)
	h.Observe(0.125)
	if h.Min() != 0.125 || h.Max() != 2.5 {
		t.Errorf("min/max = %g/%g, want 0.125/2.5", h.Min(), h.Max())
	}
	for _, v := range []float64{-1, math.NaN(), math.Copysign(0, -1)} {
		h.Observe(v)
	}
	if h.Min() != 0 || h.Count() != 5 || h.Sum() != 2.625 || h.Buckets()[0] != (Bucket{0, 3}) {
		t.Errorf("negative/NaN/-0 did not record as 0: min %g count %d sum %g buckets %v",
			h.Min(), h.Count(), h.Sum(), h.Buckets())
	}

	a, b, both := &Histogram{}, &Histogram{}, &Histogram{}
	for v := 1.0; v <= 50; v++ {
		a.Observe(v * 3)
		both.Observe(v * 3)
	}
	for v := 1.0; v <= 80; v++ {
		b.Observe(v * 0.7)
		both.Observe(v * 0.7)
	}
	a.Merge(b)
	a.Merge(&Histogram{}) // merging an empty histogram is a no-op
	//peerlint:allow floateq — min and max are recorded values, merged exactly
	if a.Count() != both.Count() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Errorf("merged count/min/max = %d/%g/%g, want %d/%g/%g",
			a.Count(), a.Min(), a.Max(), both.Count(), both.Min(), both.Max())
	}
	if !slices.Equal(a.Buckets(), both.Buckets()) {
		t.Errorf("merged buckets differ:\n%v\n%v", a.Buckets(), both.Buckets())
	}
}

func TestVecChildrenAndEscaping(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "labeled", "route", "code")
	v.With("/v1/group", "200").Inc()
	v.With("/v1/group", "200").Inc()
	v.With(`quo"te\back`+"\n", "500").Inc()
	if v.With("/v1/group", "200").Value() != 2 {
		t.Fatal("same labels did not map to the same child")
	}
	out := expose(t, r)
	if !strings.Contains(out, `test_requests_total{code="200",route="/v1/group"} 2`) {
		t.Errorf("missing labeled sample:\n%s", out)
	}
	if !strings.Contains(out, `test_requests_total{code="500",route="quo\"te\\back\n"} 1`) {
		t.Errorf("missing escaped sample:\n%s", out)
	}
}

func TestHistogramVecMergesLabels(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	v := r.HistogramVec("test_lat_seconds", "latency", "route")
	v.With("/x").Observe(0.5)
	out := expose(t, r)
	for _, want := range []string{
		`test_lat_seconds_bucket{le="1",route="/x"} 1`,
		`test_lat_seconds_bucket{le="+Inf",route="/x"} 1`,
		`test_lat_seconds_sum{route="/x"} 0.5`,
		`test_lat_seconds_count{route="/x"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// A name collision across metric types must not panic and must not
// corrupt the registered family: the loser records into a detached
// metric.
func TestTypeConflictDetaches(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_conflict", "first wins")
	g := r.Gauge("test_conflict", "loser")
	g.Set(99)
	c.Inc()
	out := expose(t, r)
	if !strings.Contains(out, "test_conflict 1\n") {
		t.Errorf("registered counter lost its sample:\n%s", out)
	}
	if strings.Contains(out, "99") {
		t.Errorf("detached gauge leaked into exposition:\n%s", out)
	}
}

// sampleLine is the exposition sample syntax; comment lines are # HELP
// and # TYPE.
var (
	sampleLine  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$`)
	commentLine = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
)

func TestExpositionFormatParses(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("a_total", "counts").Add(3)
	r.Gauge("b_gauge", "gauges").Set(7)
	r.Histogram("c_seconds", "times").Observe(0.02)
	r.CounterVec("d_total", "labeled", "x").With("y").Inc()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if len(lines) < 8 {
		t.Fatalf("suspiciously short exposition:\n%s", rec.Body.String())
	}
	for _, line := range lines {
		if commentLine.MatchString(line) || sampleLine.MatchString(line) {
			continue
		}
		t.Errorf("line does not parse as exposition format: %q", line)
	}
	// Families are sorted by name, so output is deterministic.
	first := strings.Index(rec.Body.String(), "a_total")
	last := strings.Index(rec.Body.String(), "d_total")
	if first < 0 || last < 0 || first > last {
		t.Errorf("families not in sorted order:\n%s", rec.Body.String())
	}
}

// TestHistogramQuantile pins the conservative lower-bound estimate.
func TestHistogramQuantile(t *testing.T) {
	t.Parallel()
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile(0.5) = %g, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000) // 1 ms … 100 ms, in seconds
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0.0009765625},   // rank clamps to the first observation, in [2^-10, 2^-10+2^-15)
		{0.5, 0.0498046875}, // 50 ms, bucket [51·2^-10, 52·2^-10)
		{0.99, 0.09765625},  // 99 ms, bucket [50·2^-9, 51·2^-9)
		{1, 0.1},            // exact maximum
		{-3, 0.0009765625},  // clamped
		{7, 0.1},            // clamped
	} {
		//peerlint:allow floateq — quantiles are bucket bounds or the recorded max, pinned bit for bit
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %.19g, want %.19g", c.q, got, c.want)
		}
	}
	// The estimate is never above the ranked observation and within
	// 3.1% of it.
	for q := 0.005; q < 1; q += 0.01 {
		truth := float64(max(int(q*100), 1)) / 1000
		if got := h.Quantile(q); got > truth || got < truth*(1-1.0/32) {
			t.Errorf("Quantile(%g) = %g, ranked observation %g", q, got, truth)
		}
	}
}

// TestVecWithAllocs pins the existing-child path of CounterVec.With and
// HistogramVec.With, and Histogram.Observe, as allocation-free: the
// middleware takes them on every request.
func TestVecWithAllocs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_total", "counts", "route", "method", "code")
	hv := r.HistogramVec("test_seconds", "times", "route")
	cv.With("/v1/sessions/{id}/round", "POST", "200").Inc()
	hv.With("/v1/sessions/{id}/round").Observe(0.001)
	if n := testing.AllocsPerRun(100, func() {
		cv.With("/v1/sessions/{id}/round", "POST", "200").Inc()
		hv.With("/v1/sessions/{id}/round").Observe(0.001)
	}); n != 0 {
		t.Errorf("With on an existing child allocates %.1f times per call pair", n)
	}
	// Values that differ only in where one ends and the next begins
	// are different series.
	cv.With("ab", "c", "").Inc()
	if got := cv.With("a", "bc", "").Value(); got != 0 {
		t.Errorf(`With("a", "bc", "") shares a series with ("ab", "c", ""): %d`, got)
	}
}

package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestExpositionGolden pins the full Prometheus 0.0.4 text exposition
// of a crafted registry against a committed golden file. The registry
// is built to exercise every formatting path at once:
//
//   - family ordering (registered out of alphabetical order),
//   - label escaping (backslash, double quote, newline in values) and
//     help-string escaping,
//   - series ordering inside a vec (sorted by rendered label key),
//   - histogram bucket cumulativity, the le bounds derived from the
//     occupied powers of two, the +Inf bucket, and _sum/_count
//     series, both plain and labeled,
//   - integer, negative-gauge, and float sample rendering.
//
// Any byte-level drift in the exposition — a reordered family, a
// changed escape, a non-cumulative bucket — fails the diff. Run
//
//	go test ./internal/metrics -run TestExpositionGolden -update
//
// to regenerate after a deliberate format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	// Registered deliberately out of alphabetical order: exposition must
	// sort families by name regardless.
	zlast := r.Counter("z_last_total", "registered first, exposed last")
	zlast.Add(7)

	h := r.Histogram("app_round_gain", "per-round gain")
	for _, v := range []float64{0.25, 0.5, 0.75, 2, 99} {
		h.Observe(v)
	}

	g := r.Gauge("app_in_flight", "in-flight requests")
	g.Set(-3)

	cv := r.CounterVec("app_requests_total", "requests by route and verdict", "route", "verdict")
	cv.With("/v1/sessions", "ok").Add(12)
	cv.With("/v1/sessions", "error").Inc()
	cv.With(`/path/with\backslash`, `say "hi"`).Inc()
	cv.With("/multi\nline", "ok").Add(2)

	hv := r.HistogramVec("app_latency_seconds", "latency by route\nwith a second help line", "route")
	hv.With("/healthz").Observe(0.005)
	hv.With("/healthz").Observe(0.05)
	hv.With("/v1/sessions").Observe(0.2)

	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden (regenerate with -update only for deliberate format changes)\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Independent of the golden bytes, re-assert the structural claims
	// the file encodes, so a bad -update run cannot silently pin a
	// malformed exposition.
	assertFamiliesSorted(t, got)
	assertCumulative(t, got, "app_round_gain_bucket{le=")
	if !strings.Contains(got, `le="+Inf"`) {
		t.Fatal("exposition is missing the implicit +Inf bucket")
	}
	if !strings.Contains(got, `route="/path/with\\backslash",verdict="say \"hi\""`) {
		t.Fatalf("label escaping drifted:\n%s", got)
	}
	if !strings.Contains(got, `route="/multi\nline"`) {
		t.Fatalf("newline escaping drifted:\n%s", got)
	}
	if !strings.Contains(got, "latency by route\\nwith a second help line") {
		t.Fatalf("help escaping drifted:\n%s", got)
	}
}

// assertFamiliesSorted checks # HELP headers appear in ascending name
// order.
func assertFamiliesSorted(t *testing.T, expo string) {
	t.Helper()
	var prev string
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
		if prev != "" && name < prev {
			t.Fatalf("families out of order: %q after %q", name, prev)
		}
		prev = name
	}
}

// assertCumulative checks bucket counts never decrease as le rises for
// the series sharing the given prefix.
func assertCumulative(t *testing.T, expo, prefix string) {
	t.Helper()
	last := int64(-1)
	seen := 0
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket series not cumulative at %q (%d after %d)", line, n, last)
		}
		last = n
		seen++
	}
	if seen < 2 {
		t.Fatalf("expected multiple %s lines, saw %d", prefix, seen)
	}
}

package load

import (
	"testing"
	"time"

	"peerlearn/internal/metrics"
)

// routeReport records latencies (in ns) for one op and returns the
// report's route for it plus the merged "all" route.
func routeReport(t *testing.T, latencies ...int64) (round, all *RouteReport) {
	t.Helper()
	rs := &RouteStats{Hist: &metrics.Histogram{}, status: map[string]uint64{}}
	for _, v := range latencies {
		rs.record(200, nil, time.Duration(v))
	}
	rep := &Report{}
	rep.Fill(&Stats{PerOp: map[OpKind]*RouteStats{OpRound: rs}})
	round, ok := rep.Route("round")
	if !ok {
		t.Fatal("round route missing")
	}
	all, _ = rep.Route("all")
	return round, all
}

// TestBucketBoundaries pins the report's bucket lower bounds in
// nanoseconds: values below 64 get exact buckets, larger values land
// in buckets whose lower bound is within ~3.1% of the value. These are
// the committed BENCH reports' lower_ns values, so they must not move.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v     int64
		lower int64
	}{
		{0, 0},
		{1, 1},
		{31, 31},
		{32, 32}, // exact through 63
		{63, 63},
		{64, 64}, // granularity 2 from here
		{65, 64},
		{100, 100},
		{500, 496}, // step 8: [496, 504)
		{503, 496},
		{504, 504},
		{1_000_000, 999_424},         // 1ms: step 16384, 61×16384
		{50_000_000, 49_283_072},     // 50ms: step 2^20, 47×2^20
		{1_000_000_000, 989_855_744}, // 1s: step 2^24, 59×2^24
		{-7, 0},                      // negative clamps to 0
	}
	for _, c := range cases {
		rr, _ := routeReport(t, c.v)
		if len(rr.Buckets) != 1 || rr.Buckets[0].LowerNs != c.lower {
			t.Errorf("latency %d ns: buckets %+v, want lower_ns %d", c.v, rr.Buckets, c.lower)
		}
	}
}

// TestHistQuantiles pins the report's percentile fields on a known
// distribution.
func TestHistQuantiles(t *testing.T) {
	values := make([]int64, 100)
	for i := range values {
		values[i] = int64(i + 1)
	}
	rr, _ := routeReport(t, values...)
	if rr.Count != 100 || rr.MeanNs != 50.5 || rr.MinNs != 1 || rr.MaxNs != 100 {
		t.Errorf("count/mean/min/max = %d/%g/%d/%d, want 100/50.5/1/100", rr.Count, rr.MeanNs, rr.MinNs, rr.MaxNs)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"p50", rr.P50Ns, 50},   // exact through 63
		{"p90", rr.P90Ns, 90},   // bucket [90, 92)
		{"p99", rr.P99Ns, 98},   // value 99 lands in bucket [98, 100)
		{"p999", rr.P999Ns, 98}, // rank rounds to the same observation
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if rr, _ := routeReport(t); rr.P50Ns != 0 || rr.MeanNs != 0 || rr.Buckets != nil {
		t.Errorf("empty route = %+v, want zero quantiles and no buckets", rr)
	}
}

// TestHistRecordZeroAndMin exercises the zero-latency edge: 0 is a
// recordable value distinct from "empty".
func TestHistRecordZeroAndMin(t *testing.T) {
	rr, _ := routeReport(t, 0)
	if rr.Count != 1 || rr.MinNs != 0 || rr.MaxNs != 0 {
		t.Errorf("count/min/max = %d/%d/%d, want 1/0/0", rr.Count, rr.MinNs, rr.MaxNs)
	}
	if rr, _ = routeReport(t, 10, 0); rr.MinNs != 0 || rr.MaxNs != 10 {
		t.Errorf("min/max after 10, 0 = %d/%d, want 0/10", rr.MinNs, rr.MaxNs)
	}
}

// TestHistMerge verifies the merged "all" route agrees with recording
// every observation into one op.
func TestHistMerge(t *testing.T) {
	a, b := &metrics.Histogram{}, &metrics.Histogram{}
	var both []int64
	for v := int64(1); v <= 50; v++ {
		a.Observe(float64(v * 3))
		both = append(both, v*3)
	}
	for v := int64(1); v <= 80; v++ {
		b.Observe(float64(v * 7))
		both = append(both, v*7)
	}
	rep := &Report{}
	rep.Fill(&Stats{PerOp: map[OpKind]*RouteStats{
		OpRound:  {Hist: a, status: map[string]uint64{}},
		OpStatus: {Hist: b, status: map[string]uint64{}},
	}})
	merged, _ := rep.Route("all")
	want, _ := routeReport(t, both...)
	//peerlint:allow floateq — integer-nanosecond sums are exact, so the means match bit for bit
	if merged.Count != want.Count || merged.MeanNs != want.MeanNs || merged.MinNs != want.MinNs || merged.MaxNs != want.MaxNs {
		t.Errorf("merged = %+v, want %+v", merged, want)
	}
	if merged.P50Ns != want.P50Ns || merged.P99Ns != want.P99Ns || len(merged.Buckets) != len(want.Buckets) {
		t.Errorf("merged quantiles/buckets differ: %+v, want %+v", merged, want)
	}
}

// TestHistBucketsExport checks the compact export: non-empty buckets
// only, ascending, counts totaling Count.
func TestHistBucketsExport(t *testing.T) {
	rr, all := routeReport(t, 5, 5, 500, 1_000_000)
	bs := rr.Buckets
	if len(bs) != 3 {
		t.Fatalf("got %d buckets, want 3: %+v", len(bs), bs)
	}
	var total uint64
	last := int64(-1)
	for _, b := range bs {
		if b.LowerNs <= last {
			t.Errorf("buckets not ascending: %+v", bs)
		}
		last = b.LowerNs
		total += b.Count
	}
	if total != rr.Count {
		t.Errorf("bucket counts total %d, want %d", total, rr.Count)
	}
	if bs[0] != (Bucket{LowerNs: 5, Count: 2}) {
		t.Errorf("first bucket = %+v, want {5 2}", bs[0])
	}
	if len(all.Buckets) != len(bs) {
		t.Errorf("all route has %d buckets, want %d", len(all.Buckets), len(bs))
	}
}

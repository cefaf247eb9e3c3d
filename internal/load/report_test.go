package load

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"peerlearn/internal/metrics"
)

func sampleReport() *Report {
	st := &Stats{PerOp: map[OpKind]*RouteStats{}, Elapsed: 3 * time.Second}
	rs := &RouteStats{Hist: &metrics.Histogram{}, status: map[string]uint64{}}
	for v := int64(1); v <= 100; v++ {
		rs.Hist.Observe(float64(v * int64(time.Millisecond)))
	}
	rs.status["2xx"] = 100
	st.PerOp[OpRound] = rs
	rep := &Report{
		GoVersion:  "go0.0test",
		GoMaxProcs: 4,
		Seed:       1,
		Schedule:   "constant:500",
		Mix:        "round=1",
		Sessions:   8,
		ZipfS:      1.1,
		Ops:        100,
	}
	rep.Fill(st)
	rep.HTTPIssued = map[string]uint64{"/v1/sessions/{id}/round": 100}
	return rep
}

// TestReportRoundTrip pins Encode/ParseReport as inverses: parse of an
// encoded report yields an equal value and re-encodes to identical
// bytes.
func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	enc, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(enc, []byte("\n")) {
		t.Error("Encode output missing trailing newline")
	}
	back, err := ParseReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, rep)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("re-encode differs from original encode")
	}
	if _, err := ParseReport([]byte("{not json")); err == nil {
		t.Error("malformed report parsed without error")
	}
}

// TestReportFill checks entry naming and route ordering.
func TestReportFill(t *testing.T) {
	rep := sampleReport()
	if len(rep.Routes) != 2 || rep.Routes[0].Op != "all" || rep.Routes[1].Op != "round" {
		t.Fatalf("routes = %+v, want [all round]", rep.Routes)
	}
	names := make([]string, len(rep.Entries))
	for i, e := range rep.Entries {
		names[i] = e.Name
	}
	want := []string{"load-all-p50", "load-all-p99", "load-round-p50", "load-round-p99"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("entry names = %v, want %v", names, want)
	}
	if rep.Entries[0].N != 100 {
		t.Errorf("entry N = %d, want 100", rep.Entries[0].N)
	}
	rr, ok := rep.Route("round")
	if !ok {
		t.Fatal("round route missing")
	}
	if rr.Count != 100 || rr.Status["2xx"] != 100 {
		t.Errorf("round route = %+v", rr)
	}
}

// TestCompareDetectsRegression drives the baseline gate both ways.
func TestCompareDetectsRegression(t *testing.T) {
	base := &Report{Entries: []Entry{
		{Name: "load-round-p99", N: 100, NsPerOp: 1000},
		{Name: "load-join-p99", N: 100, NsPerOp: 1000},
	}}
	cur := &Report{Entries: []Entry{
		{Name: "load-round-p99", N: 100, NsPerOp: 1200},
		{Name: "load-new-p99", N: 100, NsPerOp: 5},
	}}

	var warn bytes.Buffer
	// 1.2x is within a 25% budget; the unknown entry only warns.
	if err := Compare(cur, base, 0.25, &warn); err != nil {
		t.Errorf("Compare within budget failed: %v", err)
	}
	if !strings.Contains(warn.String(), "missing from baseline") {
		t.Errorf("expected missing-from-baseline warning, got:\n%s", warn.String())
	}

	// 1.2x exceeds a 10% budget.
	err := Compare(cur, base, 0.10, &warn)
	if err == nil {
		t.Fatal("Compare past budget succeeded, want regression error")
	}
	if !strings.Contains(err.Error(), "load-round-p99") {
		t.Errorf("regression error %q does not name the entry", err)
	}
}

// TestCompareFile covers the file-level wrapper and its failure modes.
func TestCompareFile(t *testing.T) {
	dir := t.TempDir()
	rep := sampleReport()

	good := filepath.Join(dir, "base.json")
	enc, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CompareFile(rep, good, 0.01, os.Stderr); err != nil {
		t.Errorf("self-compare failed: %v", err)
	}

	if err := CompareFile(rep, filepath.Join(dir, "absent.json"), 0.01, os.Stderr); err == nil {
		t.Error("missing baseline accepted")
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CompareFile(rep, bad, 0.01, os.Stderr); err == nil {
		t.Error("malformed baseline accepted")
	}
}

// TestParseSLOs covers the gate grammar.
func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs("round:p99<50ms, all:p50<2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 2 {
		t.Fatalf("got %d SLOs, want 2", len(slos))
	}
	if slos[0].Op != "round" || slos[0].Quantile != "p99" || slos[0].Bound != 50*time.Millisecond {
		t.Errorf("slos[0] = %+v", slos[0])
	}
	if got, err := ParseSLOs(""); err != nil || len(got) != 0 {
		t.Errorf("empty spec: %v, %v", got, err)
	}
	for _, bad := range []string{"round<50ms", "round:p42<50ms", "warp:p99<50ms", "round:p99<banana", "round:p99<-5ms", "round:p99"} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) succeeded, want error", bad)
		}
	}
}

// TestCheckSLOs drives the gate against a known distribution: p99 of
// the sample report is 98ms (1..100ms recorded, bucket lower bound).
func TestCheckSLOs(t *testing.T) {
	rep := sampleReport()
	pass, err := ParseSLOs("round:p99<100ms,all:p50<60ms")
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckSLOs(rep, pass); len(v) != 0 {
		t.Errorf("expected pass, got violations: %v", v)
	}
	fail, err := ParseSLOs("round:p99<50ms")
	if err != nil {
		t.Fatal(err)
	}
	v := CheckSLOs(rep, fail)
	if len(v) != 1 || !strings.Contains(v[0], "round p99") {
		t.Errorf("violations = %v, want one naming round p99", v)
	}
	// A gate on an op the workload never exercised must fail loudly.
	absent, err := ParseSLOs("join:p50<1s")
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckSLOs(rep, absent); len(v) != 1 {
		t.Errorf("gate on absent op passed: %v", v)
	}
}

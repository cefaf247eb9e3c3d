package load

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"peerlearn/internal/metrics"
)

// Entry is one named latency figure in the BENCH_*.json-compatible
// entry list: the same {name, n, ns_per_op} triple cmd/peerbench
// emits, so the existing compare/regress machinery (and any tooling
// that reads BENCH files) consumes load reports unchanged. NsPerOp
// carries the latency quantile in nanoseconds; N is the sample count
// behind it.
type Entry struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	NsPerOp float64 `json:"ns_per_op"`
}

// RouteReport is one op kind's full client-side result.
type RouteReport struct {
	// Op is the workload op name ("round", "join", …, or "all" for the
	// merged distribution across every op).
	Op string `json:"op"`
	// Count is the number of responded requests in the distribution.
	Count uint64 `json:"count"`
	// Errors counts transport-level failures (no response).
	Errors uint64 `json:"errors,omitempty"`
	// Status counts responses by status class ("2xx" … "5xx").
	Status map[string]uint64 `json:"status,omitempty"`
	// MeanNs through MaxNs summarize the latency distribution,
	// measured from intended send times (coordinated-omission-safe).
	MeanNs float64 `json:"mean_ns"`
	MinNs  int64   `json:"min_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P90Ns  int64   `json:"p90_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MaxNs  int64   `json:"max_ns"`
	// ServerP99Ns, when present, is the server's own p99 for the
	// corresponding route, estimated from its Prometheus duration
	// histogram — the cross-check that client- and server-side views
	// agree. Only in-process runs can read the registry directly.
	ServerP99Ns int64 `json:"server_p99_ns,omitempty"`
	// Buckets is the non-empty portion of the latency histogram.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one non-empty latency histogram bucket of a report.
type Bucket struct {
	// LowerNs is the bucket's inclusive lower bound in nanoseconds.
	LowerNs int64 `json:"lower_ns"`
	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

// Report is the top-level JSON document cmd/peerload emits (committed
// as BENCH_10.json at the repo root for the deterministic smoke
// parameters).
type Report struct {
	GoVersion     string  `json:"go_version"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Deterministic bool    `json:"deterministic"`
	Seed          int64   `json:"seed"`
	Schedule      string  `json:"schedule"`
	Mix           string  `json:"mix"`
	Sessions      int     `json:"sessions"`
	ZipfS         float64 `json:"zipf_s"`
	// Ops is the number of scheduled (measured) operations.
	Ops int `json:"ops"`
	// ElapsedNs is the run's span on the generator's clock — virtual
	// in deterministic mode.
	ElapsedNs int64 `json:"elapsed_ns"`
	// Errors totals transport failures across every op.
	Errors uint64 `json:"errors"`
	// Entries carries the BENCH-compatible {name, n, ns_per_op} list:
	// load-<op>-p50 and load-<op>-p99 per op, plus load-all-*.
	Entries []Entry `json:"entries"`
	// Routes carries the full per-op detail behind the entries.
	Routes []RouteReport `json:"routes"`
	// HTTPIssued counts every HTTP request the harness sent — scheduled
	// ops, setup traffic, and maintenance — by server route template,
	// for cross-checking against the server's own request counters.
	HTTPIssued map[string]uint64 `json:"http_issued,omitempty"`
}

// Fill renders st into rep's Entries and Routes (header fields are the
// caller's). Ops appear in their fixed kind order; the merged "all"
// distribution leads.
func (rep *Report) Fill(st *Stats) {
	rep.ElapsedNs = int64(st.Elapsed)

	all := &metrics.Histogram{}
	var allErrors uint64
	for _, rs := range st.PerOp {
		all.Merge(rs.Hist)
		allErrors += rs.Errors()
	}
	rep.Errors = allErrors
	rep.addRoute("all", all, nil, allErrors)
	for k := OpKind(0); k < numOpKinds; k++ {
		rs, ok := st.PerOp[k]
		if !ok {
			continue
		}
		rep.addRoute(k.String(), rs.Hist, rs.Status(), rs.Errors())
	}
}

// addRoute appends one RouteReport plus its p50/p99 entries. h holds
// nanoseconds; its bucket bounds are whole nanoseconds below 2^53 ns,
// so the report's integer fields lose nothing.
func (rep *Report) addRoute(op string, h *metrics.Histogram, status map[string]uint64, errors uint64) {
	count := h.Count()
	rr := RouteReport{
		Op:     op,
		Count:  count,
		Errors: errors,
		Status: status,
		MinNs:  int64(h.Min()),
		P50Ns:  int64(h.Quantile(0.50)),
		P90Ns:  int64(h.Quantile(0.90)),
		P99Ns:  int64(h.Quantile(0.99)),
		P999Ns: int64(h.Quantile(0.999)),
		MaxNs:  int64(h.Max()),
	}
	for _, b := range h.Buckets() {
		rr.Buckets = append(rr.Buckets, Bucket{LowerNs: int64(b.Lower), Count: b.Count})
	}
	if count > 0 {
		rr.MeanNs = h.Sum() / float64(count)
	}
	rep.Routes = append(rep.Routes, rr)
	if count == 0 {
		return
	}
	rep.Entries = append(rep.Entries,
		Entry{Name: "load-" + op + "-p50", N: int(count), NsPerOp: float64(rr.P50Ns)},
		Entry{Name: "load-" + op + "-p99", N: int(count), NsPerOp: float64(rr.P99Ns)},
	)
}

// Route returns the RouteReport for op, if present.
func (rep *Report) Route(op string) (*RouteReport, bool) {
	for i := range rep.Routes {
		if rep.Routes[i].Op == op {
			return &rep.Routes[i], true
		}
	}
	return nil, false
}

// Encode renders the report as indented JSON with a trailing newline —
// the committed-baseline format.
func (rep *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseReport decodes a report produced by Encode (or any BENCH-shaped
// document carrying an entries list).
func ParseReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("load: parsing report: %w", err)
	}
	return &rep, nil
}

// Compare fails (non-nil error) if any entry shared between rep and
// base regresses ns_per_op by more than maxRegress (fractional: 0.25 =
// 25%). Entries present only in the baseline are skipped — a filtered
// run compares naturally against a full baseline — and entries present
// only in the current run warn (no gate until the baseline is
// refreshed) without failing, matching cmd/peerbench semantics.
func Compare(rep, base *Report, maxRegress float64, warn io.Writer) error {
	baseNs := make(map[string]float64, len(base.Entries))
	for _, e := range base.Entries {
		baseNs[e.Name] = e.NsPerOp
	}
	var failures []string
	for _, e := range rep.Entries {
		b, ok := baseNs[e.Name]
		if !ok {
			fmt.Fprintf(warn, "compare %-20s WARNING: missing from baseline — no regression gate\n", e.Name)
			continue
		}
		if b <= 0 {
			continue
		}
		ratio := e.NsPerOp / b
		status := "ok"
		if ratio > 1+maxRegress {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns vs baseline %.0f (%.2fx)", e.Name, e.NsPerOp, b, ratio))
		}
		fmt.Fprintf(warn, "compare %-20s %6.2fx of baseline  %s\n", e.Name, ratio, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d load entr%s regressed more than %.0f%%:\n  %s",
			len(failures), plural(len(failures)), maxRegress*100, strings.Join(failures, "\n  "))
	}
	return nil
}

// CompareFile runs Compare against a baseline file.
func CompareFile(rep *Report, path string, maxRegress float64, warn io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	base, err := ParseReport(raw)
	if err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return Compare(rep, base, maxRegress, warn)
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

// SLO is one absolute latency gate: the given quantile of the given op
// must stay strictly below Bound. Op may be any workload op name or
// "all" for the merged distribution.
type SLO struct {
	Op       string
	Quantile string // "p50", "p90", "p99", or "p999"
	Bound    time.Duration
}

// String renders the canonical spec term.
func (s SLO) String() string { return fmt.Sprintf("%s:%s<%v", s.Op, s.Quantile, s.Bound) }

// ParseSLOs parses a comma-separated gate spec like
// "round:p99<50ms,join:p50<2ms,all:p99<100ms".
func ParseSLOs(spec string) ([]SLO, error) {
	var out []SLO
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		opQ, boundStr, ok := strings.Cut(term, "<")
		if !ok {
			return nil, fmt.Errorf("load: bad SLO %q (want op:quantile<duration)", term)
		}
		op, q, ok := strings.Cut(opQ, ":")
		if !ok {
			return nil, fmt.Errorf("load: bad SLO %q (want op:quantile<duration)", term)
		}
		op, q = strings.TrimSpace(op), strings.TrimSpace(q)
		switch q {
		case "p50", "p90", "p99", "p999":
		default:
			return nil, fmt.Errorf("load: bad SLO quantile %q (want p50, p90, p99, or p999)", q)
		}
		if op != "all" {
			if _, err := parseOpName(op); err != nil {
				return nil, err
			}
		}
		bound, err := time.ParseDuration(strings.TrimSpace(boundStr))
		if err != nil || bound <= 0 {
			return nil, fmt.Errorf("load: bad SLO bound %q (want a positive duration)", boundStr)
		}
		out = append(out, SLO{Op: op, Quantile: q, Bound: bound})
	}
	return out, nil
}

// CheckSLOs evaluates every gate against the report and returns one
// violation message per failed gate (empty means all gates passed). A
// gate on an op with no recorded samples is itself a violation — a
// workload that never exercised the gated route must not pass its SLO.
func CheckSLOs(rep *Report, slos []SLO) []string {
	var violations []string
	for _, s := range slos {
		rr, ok := rep.Route(s.Op)
		if !ok || rr.Count == 0 {
			violations = append(violations, fmt.Sprintf("SLO %s: no %q samples in the report", s, s.Op))
			continue
		}
		var got int64
		switch s.Quantile {
		case "p50":
			got = rr.P50Ns
		case "p90":
			got = rr.P90Ns
		case "p99":
			got = rr.P99Ns
		case "p999":
			got = rr.P999Ns
		}
		if got >= int64(s.Bound) {
			violations = append(violations, fmt.Sprintf(
				"SLO %s violated: %s %s = %v (n=%d)", s, s.Op, s.Quantile, time.Duration(got), rr.Count))
		}
	}
	return violations
}

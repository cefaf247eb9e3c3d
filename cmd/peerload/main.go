// Command peerload is the open-loop serving-path load harness: it
// drives the peerlearn API with a mixed session workload on a fixed
// arrival schedule, measures every latency from the request's intended
// send time (coordinated-omission-safe), and gates the result on
// absolute latency SLOs and on regression against a committed
// BENCH-style baseline.
//
// Two execution modes share all of the workload logic:
//
//   - live: -addr http://host:port drives a running peerlearnd over
//     TCP with up to -max-inflight concurrent requests.
//   - in-process (default): the harness builds server.New directly and
//     calls the handler — no sockets. With -deterministic it runs
//     sequentially on a seeded virtual clock, so the entire report is
//     a byte-stable pure function of the seed: the CI smoke mode.
//
// Exit codes: 0 success; 1 run failure, SLO violation, regression, or
// malformed baseline; 2 bad flags or specs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"peerlearn/internal/load"
	"peerlearn/internal/metrics"
	"peerlearn/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opRoutes maps each workload op to the server route template its
// measured request hits, for the server-side p99 annotation.
var opRoutes = map[string]string{
	"create":   "/v1/sessions",
	"delete":   "/v1/sessions/{id}",
	"join":     "/v1/sessions/{id}/join",
	"leave":    "/v1/sessions/{id}/leave",
	"round":    "/v1/sessions/{id}/round",
	"status":   "/v1/sessions/{id}",
	"simulate": "/v1/simulate",
	"group":    "/v1/group",
}

// defaultMix is a session-heavy production-shaped blend: mostly
// membership churn and rounds, a trickle of lifecycle and stateless
// traffic.
const defaultMix = "create=1,delete=1,join=4,leave=2,round=3,status=2,simulate=1"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peerload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "", "base URL of a live daemon (e.g. http://127.0.0.1:8080); empty drives an in-process server")
		deterministic = fs.Bool("deterministic", false, "sequential run on a seeded virtual clock (in-process only); the report is byte-stable per seed")
		seed          = fs.Int64("seed", 1, "seed for the plan, skills, and virtual clock")
		scheduleSpec  = fs.String("schedule", "constant:500", "arrival schedule: constant:R, ramp:R0:R1, or step:R0:R1:F (requests/second)")
		duration      = fs.Duration("duration", 10*time.Second, "schedule duration (sets the op count unless -ops is given)")
		opsFlag       = fs.Int("ops", 0, "total scheduled ops (0 means the schedule's arrival count over -duration)")
		sessions      = fs.Int("sessions", 16, "session keyspace size")
		groupSize     = fs.Int("group-size", 4, "group size for created sessions")
		mode          = fs.String("mode", "star", "interaction mode for created sessions (star or clique)")
		zipfS         = fs.Float64("zipf", 1.1, "Zipf skew of session popularity (0 = uniform)")
		mixSpec       = fs.String("mix", defaultMix, "op mix weights, e.g. join=4,round=3")
		maxInFlight   = fs.Int("max-inflight", 64, "max concurrent requests (concurrent modes)")
		timeout       = fs.Duration("timeout", 5*time.Second, "per-request timeout (live mode)")
		out           = fs.String("out", "", "write the JSON report to this file")
		compare       = fs.String("compare", "", "baseline report to compare entries against")
		maxRegress    = fs.Float64("max-regress", 0.25, "max allowed fractional latency regression vs -compare")
		sloSpec       = fs.String("slo", "", "absolute latency gates, e.g. round:p99<50ms,all:p99<100ms")
		metricsOut    = fs.String("metrics-out", "", "dump the final /metrics exposition to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "peerload: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *deterministic && *addr != "" {
		fmt.Fprintln(stderr, "peerload: -deterministic runs in-process; it cannot target -addr")
		return 2
	}
	if *sessions < 1 || *groupSize < 2 || *opsFlag < 0 || *maxRegress < 0 {
		fmt.Fprintln(stderr, "peerload: -sessions must be ≥ 1, -group-size ≥ 2, -ops ≥ 0, -max-regress ≥ 0")
		return 2
	}

	mix, err := load.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(stderr, "peerload: %v\n", err)
		return 2
	}
	sched, err := load.ParseSchedule(*scheduleSpec, *duration)
	if err != nil {
		fmt.Fprintf(stderr, "peerload: %v\n", err)
		return 2
	}
	slos, err := load.ParseSLOs(*sloSpec)
	if err != nil {
		fmt.Fprintf(stderr, "peerload: %v\n", err)
		return 2
	}
	zipf, err := load.NewZipf(*sessions, *zipfS)
	if err != nil {
		fmt.Fprintf(stderr, "peerload: %v\n", err)
		return 2
	}

	// Assemble the target and clock per mode.
	var (
		d     doer
		clock load.Clock
		reg   *metrics.Registry // non-nil only in-process
	)
	switch {
	case *addr != "":
		d = newHTTPDoer(*addr, *timeout)
	default:
		reg = metrics.NewRegistry()
		opts := server.Options{
			Registry: reg,
			Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		}
		if *deterministic {
			// One virtual clock serves both the dispatcher and the serving
			// middleware; every latency is a pure function of the seed.
			vc := load.NewVirtualClock(uint64(*seed)+0x9e3779b97f4a7c15, 20*time.Microsecond, 200*time.Microsecond)
			clock = vc
			opts.Clock = vc
			var rid atomic.Int64
			opts.RequestID = func() string {
				return fmt.Sprintf("load-%08d", rid.Add(1))
			}
		}
		d = &inprocDoer{handler: server.New(server.NewSessionStore(), opts)}
	}

	h := newHarness(d, *sessions, *groupSize, *mode, *seed)
	if err := h.Setup(); err != nil {
		fmt.Fprintf(stderr, "peerload: %v\n", err)
		return 1
	}

	n := *opsFlag
	if n == 0 {
		n = sched.Count()
	}
	ops := load.BuildPlan(n, mix, zipf, load.NewRand(uint64(*seed)))

	st := load.Run(ops, sched, h, load.RunConfig{
		MaxInFlight: *maxInFlight,
		Sequential:  *deterministic,
		Clock:       clock,
	})

	rep := &load.Report{
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Deterministic: *deterministic,
		Seed:          *seed,
		Schedule:      sched.String(),
		Mix:           mix.String(),
		Sessions:      *sessions,
		ZipfS:         *zipfS,
		Ops:           n,
	}
	rep.Fill(st)
	rep.HTTPIssued = h.Issued()
	if reg != nil {
		annotateServerQuantiles(rep, reg)
	}

	printSummary(stdout, rep)

	if *metricsOut != "" {
		expo, err := h.Scrape()
		if err != nil {
			fmt.Fprintf(stderr, "peerload: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*metricsOut, []byte(expo), 0o644); err != nil {
			fmt.Fprintf(stderr, "peerload: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		enc, err := rep.Encode()
		if err != nil {
			fmt.Fprintf(stderr, "peerload: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(stderr, "peerload: %v\n", err)
			return 1
		}
	}

	rc := 0
	if *compare != "" {
		if err := load.CompareFile(rep, *compare, *maxRegress, stdout); err != nil {
			fmt.Fprintf(stderr, "peerload: %v\n", err)
			rc = 1
		}
	}
	if violations := load.CheckSLOs(rep, slos); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stderr, "peerload: %s\n", v)
		}
		rc = 1
	}
	return rc
}

// annotateServerQuantiles fills each route report's ServerP99Ns from
// the in-process registry's duration histogram — the server's own view
// of the same traffic. The vec lookup is get-or-create on the same
// name the middleware registered, so it always resolves to the live
// family.
func annotateServerQuantiles(rep *load.Report, reg *metrics.Registry) {
	vec := reg.HistogramVec("peerlearn_http_request_duration_seconds",
		"Request latency in seconds, by route template.", "route")
	for i := range rep.Routes {
		route, ok := opRoutes[rep.Routes[i].Op]
		if !ok {
			continue
		}
		hist := vec.With(route)
		if hist.Count() == 0 {
			continue
		}
		rep.Routes[i].ServerP99Ns = int64(hist.Quantile(0.99) * 1e9)
	}
}

// printSummary renders the human-readable per-route table.
func printSummary(w io.Writer, rep *load.Report) {
	fmt.Fprintf(w, "peerload: %d ops, schedule %s, mix %s, %d sessions (zipf %g), seed %d\n",
		rep.Ops, rep.Schedule, rep.Mix, rep.Sessions, rep.ZipfS, rep.Seed)
	fmt.Fprintf(w, "%-10s %8s %7s %12s %12s %12s %12s\n",
		"op", "count", "errors", "p50", "p90", "p99", "max")
	for _, rr := range rep.Routes {
		fmt.Fprintf(w, "%-10s %8d %7d %12v %12v %12v %12v\n",
			rr.Op, rr.Count, rr.Errors,
			time.Duration(rr.P50Ns), time.Duration(rr.P90Ns),
			time.Duration(rr.P99Ns), time.Duration(rr.MaxNs))
	}
}

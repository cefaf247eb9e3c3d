package main

import "math"

// metricDef describes one reported metric. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	unit   string
	better string
	// every marks an end-to-end metric: every workload reports it.
	every bool
	// moves names the end-to-end metric and workload a per-layer metric
	// should move, and holds says what it should leave alone, so later
	// changes can cite the mapping by name.
	moves, holds string
}

// endToEnd lists the metrics of an untraced run (--trace 0). Every
// workload reports each of them, defined over its own operations:
//
//	                  cohorts, lecture                    simulate
//	p50_us            open-loop latency p50, from the     CPU time p50 of the anneal
//	                  intended send, of status GETs       pairs (the annealing
//	                  (cohorts) or rounds (lecture)       thread's, so waits for a
//	                                                      CPU do not count)
//	throughput_per_s  saturation completions per second   participant-rounds per second
//	                  (median of the saturation blocks)   (from median round times)
//	setup_s           handler, journal, sessions, joins   inputs and warm-up runs
//	                  and warm-up (median of 3)           (median of 3)
//	loaded_heap_mb    live heap the sessions hold after   live heap of a warm-up run in
//	                  the timed phase: before a crash     its last round less the
//	                  less after it                       inputs (median of 3)
//
// Tail percentiles are per-layer: on a 2-vCPU machine the open-loop
// p99 moved by more than half its median between seeds (GC pauses and
// dispatch stalls), and a p99 over 45 anneal pairs is their maximum.
// The per-request-class percentiles (read_*, write_*, round_*) and the
// µs service times are per-layer for the same reason.
var endToEnd = []string{"p50_us", "throughput_per_s", "setup_s", "loaded_heap_mb"}

// perLayer lists the metrics of a traced run (--trace 1). A layer a
// workload does not exercise reports 0.
var perLayer = []string{
	"read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us", "round_p50_us", "round_p99_us",
	"capacity_rps", "recover_s",
	"load.floor_p50_us", "load.floor_p99_us", "load.lag_p50_us", "load.lag_p99_us",
	"server.status.svc_p50_us", "server.status.svc_p99_us",
	"server.write.svc_p50_us", "server.write.svc_p99_us",
	"server.round.svc_p50_us", "server.round.svc_p99_us",
	"server.middleware_p50_us",
	"server.status_allocs", "server.status_bytes", "server.join_allocs", "server.join_bytes",
	"server.leave_allocs", "server.leave_bytes", "server.round_allocs", "server.round_bytes",
	"runtime.gc_per_kreq", "runtime.gc_cpu_pct",
	"matchmaker.seat_p50_us", "dygroups.group_p50_us", "core.apply_p50_us",
	"matchmaker.commit_p50_us", "matchmaker.commit_p99_us", "matchmaker.attempts_per_round",
	"trace.round_unaccounted_pct", "trace.round_spans",
	"server.wal_disk_mb", "ledger.replay_ms_per_session",
	"sim_mpr_per_s", "anneal_ms", "anneal_gain",
	"dygroups.star_group_ms", "dygroups.clique_group_ms", "core.star_round_ms", "core.clique_round_ms",
	"baselines.anneal_star_ms", "baselines.anneal_clique_ms",
	"runtime.peak_rss_mb", "trace.overhead_pct",
}

// roundUnaccountedTolerance is the stated tolerance of
// trace.round_unaccounted_pct: the share of round service time outside
// the middleware (the part of ServeHTTP outside the clock window) and
// the seat, group, apply and commit spans — the policy lock and the
// hook calls. It is checked once minSpanRounds rounds have clean spans.
const (
	roundUnaccountedTolerance = 5.0
	minSpanRounds             = 20
)

var metricDefs = map[string]metricDef{
	"p50_us":                        {unit: "us", better: "lower", every: true},
	"throughput_per_s":              {unit: "1/s", better: "higher", every: true},
	"setup_s":                       {unit: "s", better: "lower", every: true},
	"loaded_heap_mb":                {unit: "MiB", better: "lower", every: true},
	"read_p50_us":                   {unit: "us", better: "lower", moves: "p50_us@cohorts", holds: "simulate"},
	"read_p99_us":                   {unit: "us", better: "lower", moves: "tail of p50_us@cohorts (watched, not gated)", holds: "simulate"},
	"write_p50_us":                  {unit: "us", better: "lower", moves: "p50_us@cohorts,lecture", holds: "simulate"},
	"write_p99_us":                  {unit: "us", better: "lower", moves: "tail of p50_us@cohorts,lecture (watched, not gated)", holds: "simulate"},
	"round_p50_us":                  {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "simulate"},
	"round_p99_us":                  {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "simulate"},
	"capacity_rps":                  {unit: "1/s", better: "higher", moves: "throughput_per_s@cohorts,lecture", holds: "simulate"},
	"recover_s":                     {unit: "s", better: "lower", moves: "nothing gated (restart time after a crash)", holds: "simulate"},
	"load.floor_p50_us":             {unit: "us", better: "lower", moves: "nothing: if it moves, an end-to-end change is a harness artifact"},
	"load.floor_p99_us":             {unit: "us", better: "lower", moves: "nothing: if it moves, an end-to-end change is a harness artifact"},
	"load.lag_p50_us":               {unit: "us", better: "lower", moves: "nothing: if it moves, an end-to-end change is a harness artifact"},
	"load.lag_p99_us":               {unit: "us", better: "lower", moves: "nothing: if it moves, an end-to-end change is a harness artifact"},
	"server.status.svc_p50_us":      {unit: "us", better: "lower", moves: "p50_us@cohorts", holds: "simulate"},
	"server.status.svc_p99_us":      {unit: "us", better: "lower", moves: "tail of p50_us@cohorts (watched, not gated)", holds: "simulate"},
	"server.write.svc_p50_us":       {unit: "us", better: "lower", moves: "p50_us@cohorts,lecture", holds: "simulate"},
	"server.write.svc_p99_us":       {unit: "us", better: "lower", moves: "tail of p50_us@cohorts,lecture (watched, not gated)", holds: "simulate"},
	"server.round.svc_p50_us":       {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "simulate"},
	"server.round.svc_p99_us":       {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "simulate"},
	"server.middleware_p50_us":      {unit: "us", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "p50_us@lecture, simulate"},
	"server.status_allocs":          {unit: "count", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"server.status_bytes":           {unit: "B", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"server.join_allocs":            {unit: "count", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"server.join_bytes":             {unit: "B", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"server.leave_allocs":           {unit: "count", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"server.leave_bytes":            {unit: "B", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"server.round_allocs":           {unit: "count", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"server.round_bytes":            {unit: "B", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"runtime.gc_per_kreq":           {unit: "count", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"runtime.gc_cpu_pct":            {unit: "%", better: "lower", moves: "p50_us@cohorts, throughput_per_s@cohorts", holds: "simulate"},
	"matchmaker.seat_p50_us":        {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "read_p50_us@cohorts"},
	"dygroups.group_p50_us":         {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "cohorts"},
	"core.apply_p50_us":             {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "cohorts"},
	"matchmaker.commit_p50_us":      {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture, p50_us@cohorts", holds: "simulate"},
	"matchmaker.commit_p99_us":      {unit: "us", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture", holds: "simulate"},
	"matchmaker.attempts_per_round": {unit: "count", better: "lower", moves: "p50_us@lecture, throughput_per_s@lecture"},
	"trace.round_unaccounted_pct":   {unit: "%", better: "lower", moves: "nothing: stays within the stated 5% tolerance"},
	"trace.round_spans":             {unit: "count", better: "higher", moves: "nothing: rounds with an unambiguous span breakdown"},
	"server.wal_disk_mb":            {unit: "MiB", better: "lower", moves: "recover_s@cohorts,lecture", holds: "simulate"},
	"ledger.replay_ms_per_session":  {unit: "ms", better: "lower", moves: "recover_s@cohorts,lecture", holds: "simulate"},
	"sim_mpr_per_s":                 {unit: "Mpr/s", better: "higher", moves: "throughput_per_s@simulate", holds: "cohorts, lecture"},
	"anneal_ms":                     {unit: "ms", better: "lower", moves: "p50_us@simulate", holds: "cohorts, lecture"},
	"anneal_gain":                   {unit: "gain", better: "higher", moves: "nothing: exact at a seed, so faster cannot mean less work"},
	"dygroups.star_group_ms":        {unit: "ms", better: "lower", moves: "throughput_per_s@simulate", holds: "cohorts"},
	"dygroups.clique_group_ms":      {unit: "ms", better: "lower", moves: "throughput_per_s@simulate", holds: "cohorts"},
	"core.star_round_ms":            {unit: "ms", better: "lower", moves: "throughput_per_s@simulate", holds: "cohorts"},
	"core.clique_round_ms":          {unit: "ms", better: "lower", moves: "throughput_per_s@simulate", holds: "cohorts"},
	"baselines.anneal_star_ms":      {unit: "ms", better: "lower", moves: "p50_us@simulate", holds: "cohorts, lecture"},
	"baselines.anneal_clique_ms":    {unit: "ms", better: "lower", moves: "p50_us@simulate", holds: "cohorts, lecture"},
	"runtime.peak_rss_mb":           {unit: "MiB", better: "lower", moves: "nothing gated: the collector's timing sets it; loaded_heap_mb is the gated footprint"},
	"trace.overhead_pct":            {unit: "%", better: "lower", moves: "nothing: traced vs untraced p50_us (throughput_per_s for simulate)"},
}

// setServingLayers reports a serving workload's per-layer metrics from
// its untraced pass u and traced pass t.
func setServingLayers(rep *report, spec servingSpec, u, t *servingRun) {
	for _, c := range []struct {
		k    opKind
		name string
		svc  string
	}{{opRead, "read", "status"}, {opWrite, "write", "write"}, {opRound, "round", "round"}} {
		lat := latencies(u.open, classOf(u.resolved, c.k))
		rep.set(c.name+"_p50_us", us(quantile(lat, 0.5)), len(lat))
		rep.set(c.name+"_p99_us", us(quantile(lat, 0.99)), len(lat))
		svc := services(u.open, classOf(u.resolved, c.k))
		rep.set("server."+c.svc+".svc_p50_us", us(quantile(svc, 0.5)), len(svc))
		rep.set("server."+c.svc+".svc_p99_us", us(quantile(svc, 0.99)), len(svc))
	}
	rep.set("capacity_rps", u.capacity, u.capOps)
	rep.set("recover_s", u.recoverS, 1)
	floor := latencies(u.floor, nil)
	rep.set("load.floor_p50_us", us(quantile(floor, 0.5)), len(floor))
	rep.set("load.floor_p99_us", us(quantile(floor, 0.99)), len(floor))
	lag := lags(u.open)
	rep.set("load.lag_p50_us", us(quantile(lag, 0.5)), len(lag))
	rep.set("load.lag_p99_us", us(quantile(lag, 0.99)), len(lag))
	for k, name := range map[opKind]string{opRead: "status", opJoin: "join", opLeave: "leave", opRound: "round"} {
		a := u.allocs[k]
		rep.set("server."+name+"_allocs", a.allocs, a.n)
		rep.set("server."+name+"_bytes", a.bytes, a.n)
	}
	rep.set("runtime.gc_per_kreq", float64(u.gcs)/(float64(len(u.open))/1000), len(u.open))
	rep.set("runtime.gc_cpu_pct", 100*u.gcCPU/(u.openSecs*float64(gomaxprocs())), 1)
	rep.set("server.wal_disk_mb", float64(u.walBytes)/(1<<20), 1)

	// The span breakdown, from the traced pass.
	var mw, seat, group, apply, commit []int64
	var attempts, rounds int
	var svcSum, spanSum int64
	for _, r := range t.tr.all {
		if r.w1 == 0 || r.done == 0 {
			continue
		}
		svc := r.done - r.start
		mw = append(mw, svc-(r.w1-r.w0))
		if r.kind != opRound {
			continue
		}
		rounds++
		attempts += r.attempts
		if !r.clean {
			continue
		}
		seat, group, apply, commit = append(seat, r.seat), append(group, r.group), append(apply, r.apply), append(commit, r.commit)
		svcSum += svc
		// The middleware outside the clock window is its own layer.
		spanSum += svc - (r.w1 - r.w0) + r.seat + r.group + r.apply + r.commit
	}
	rep.set("server.middleware_p50_us", us(quantile(mw, 0.5)), len(mw))
	rep.set("matchmaker.seat_p50_us", us(quantile(seat, 0.5)), len(seat))
	rep.set("dygroups.group_p50_us", us(quantile(group, 0.5)), len(group))
	rep.set("core.apply_p50_us", us(quantile(apply, 0.5)), len(apply))
	rep.set("matchmaker.commit_p50_us", us(quantile(commit, 0.5)), len(commit))
	rep.set("matchmaker.commit_p99_us", us(quantile(commit, 0.99)), len(commit))
	rep.set("trace.round_spans", float64(len(seat)), rounds)
	if rounds > 0 {
		rep.set("matchmaker.attempts_per_round", float64(attempts)/float64(rounds), rounds)
	}
	if svcSum > 0 {
		pct := 100 * float64(svcSum-spanSum) / float64(svcSum)
		rep.set("trace.round_unaccounted_pct", pct, len(seat))
		if len(seat) >= minSpanRounds && math.Abs(pct) > roundUnaccountedTolerance {
			rep.fail("round spans leave %.2f%% of round service time unaccounted (tolerance %.0f%%)", pct, roundUnaccountedTolerance)
		}
	}
	rep.set("ledger.replay_ms_per_session", t.replayMS, t.replayed)
	plain, traced := latencies(u.open, classOf(u.resolved, spec.primary)), latencies(t.open, classOf(t.resolved, spec.primary))
	rep.set("trace.overhead_pct", 100*(float64(quantile(traced, 0.5))/float64(quantile(plain, 0.5))-1), len(traced))
}

// Package load is the serving-path load-generation library behind
// cmd/peerload: the instrument that measures what a real student
// request experiences when peerlearnd serves a MOOC-scale cohort.
//
// Everything in the package is built around two commitments:
//
// Open loop, coordinated-omission-safe. Requests are sent on a fixed
// arrival schedule (constant, ramp, or step rate) that does not slow
// down when the server does, and every latency is measured from the
// request's *intended* send time, not from when the generator actually
// got around to sending it. A closed-loop generator silently pauses
// the arrival process while it waits for slow responses, so the worst
// latencies — exactly the ones an SLO cares about — never get charged
// to the server (Tene's "coordinated omission"). Here a response that
// arrives late keeps every queued arrival's clock running, so a stall
// shows up as a stall.
//
// Deterministic by seed. Schedules, the Zipf keyspace, the op mix, and
// (under a VirtualClock) every latency are pure functions of the run
// seed: the same seed replays the same byte-identical report, which is
// what lets CI gate on a committed baseline the way peerbench does.
//
// The pieces: Rand (splitmix64 stream), Zipf (keyspace popularity),
// Schedule (arrival times), Mix/BuildPlan (op sequence), Run (the
// dispatcher over a caller-supplied Target, recording latencies into
// log-linear metrics.Histograms), and Report (BENCH_*.json-compatible
// output with -compare regression and SLO gates).
package load

// Command perfbench is the repository benchmark: it runs one named
// workload at a given seed against the production code paths, checks
// the outputs, and prints every metric by name with its unit.
//
//	perfbench --workload cohorts|lecture|simulate --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the workload untraced and then traced, and
// prints the per-layer metrics (spans are written under --out).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every output check passed; 2 means the benchmark could not run.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this module against the checkout's sources.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"slices"
	"syscall"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale shrinks every size and count of the workload; tests run
	// the benchmark at a small fraction of its real shape.
	scale float64
	// outDir receives the journal directories and span files.
	outDir string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, counts and check failures.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, value float64, n int) {
	def, ok := metricDefs[name]
	if !ok {
		r.fail("internal: metric %q has no definition", name)
		return
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail("metric %s is not finite (%v)", name, value)
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: def.unit}
	r.samples[name] = n
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ops adds attempted and failed operation counts.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

var workloads = map[string]func(cfg config, rep *report) error{
	"cohorts":  func(cfg config, rep *report) error { return runServing(cohortsSpec(cfg.scale), cfg, rep) },
	"lecture":  func(cfg config, rep *report) error { return runServing(lectureSpec(cfg.scale), cfg, rep) },
	"simulate": runSimulate,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: 1}
	fs.StringVar(&cfg.workload, "workload", "", "workload: cohorts, lecture or simulate")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase, in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench.out", "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	work, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cohorts|lecture|simulate, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if err := checkSources(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep, err := execute(cfg, work)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := emit(cfg, rep, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	if len(rep.problems) > 0 || rep.failed > 0 {
		return 1
	}
	return 0
}

// execute runs one workload into a fresh report inside cfg.outDir.
func execute(cfg config, work func(config, *report) error) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport()
	if err := work(cfg, rep); err != nil {
		return nil, err
	}
	rep.set("runtime.peak_rss_mb", peakRSSMiB(), 1)
	return rep, nil
}

// checkSources refuses to run outside a checkout of the repository:
// the benchmark measures the sources next to it, so a directory that
// holds only the benchmark has nothing to measure.
func checkSources() error {
	for _, p := range []string{"go.mod", "peerlearn.go", "internal/server/server.go"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// emit prints the human-readable table and then the JSON result line
// holding exactly the metrics of the requested kind.
func emit(cfg config, rep *report, stdout io.Writer) error {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, name := range want {
		m, ok := rep.metrics[name]
		if !ok {
			if cfg.trace && !metricDefs[name].every {
				// A layer this workload does not exercise reports zero.
				m = metric{Value: 0, Unit: metricDefs[name].unit}
			} else {
				rep.fail("metric %s was not measured", name)
				continue
			}
		}
		out.Metrics[name] = m
	}
	if out.Attempted < 1 {
		return errors.New("no operations were attempted")
	}
	out.Correct = len(rep.problems) == 0 && rep.failed == 0
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d attempted=%d failed=%d (%.4f%%)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0),
		rep.attempted, rep.failed, 100*float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, n := range names {
		line := fmt.Sprintf("%-34s %14.4f %-6s n=%d", n, out.Metrics[n].Value, out.Metrics[n].Unit, rep.samples[n])
		if d := metricDefs[n]; d.moves != "" {
			line += "  moves " + d.moves
			if d.holds != "" {
				line += "; holds " + d.holds
			}
		}
		fmt.Fprintln(stdout, line)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// liveHeap is the heap held by live objects, in bytes, read after n
// forced collections. Objects parked in a sync.Pool survive one
// collection in the pool's victim cache and are gone after two.
func liveHeap(n int) int64 {
	for i := 0; i < n; i++ {
		runtime.GC()
	}
	s := []runtimemetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	runtimemetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

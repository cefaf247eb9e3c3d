// Package metrics is a dependency-free metrics registry for the
// serving layer: atomic counters, gauges, and log-linear histograms
// with Prometheus text exposition (format version 0.0.4), built on the
// standard library alone so the module stays dependency-free.
//
// A Registry hands out metrics by name with get-or-create semantics —
// asking twice for the same name returns the same instance, so
// packages can share a registry without coordinating initialization
// order. All metric operations are safe for concurrent use and
// lock-free on the hot path (sync/atomic); the registry lock is taken
// only on creation and exposition.
//
// Registration conflicts (same name, different metric type) do not
// panic — this code backs a long-running server — and instead return a
// detached metric that records normally but is never exposed. That
// keeps a programming error from tearing the process down while still
// being visible (the series is missing from /metrics).
package metrics

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap on its bit
// pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// vec is the label-keyed child table behind CounterVec and
// HistogramVec.
type vec[M any] struct {
	mu     sync.Mutex
	labels []string
	// kids is keyed by lookupKey of the label values, so finding an
	// existing child renders and allocates nothing.
	kids map[string]child[M]
}

// child is one series of a vec: its rendered label pairs and metric.
type child[M any] struct {
	labels string
	m      *M
}

func newVec[M any](labels []string) vec[M] {
	return vec[M]{labels: labels, kids: make(map[string]child[M])}
}

// with returns the child for the given label values (positional,
// matching the vec's label names), creating it on first use. A
// value-count mismatch returns a detached metric rather than
// panicking.
func (v *vec[M]) with(values []string) *M {
	if len(values) != len(v.labels) {
		return new(M)
	}
	var buf [128]byte
	key := lookupKey(buf[:0], values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[string(key)]; ok {
		return c.m
	}
	c := child[M]{labels: labelKey(v.labels, values), m: new(M)}
	v.kids[string(key)] = c
	return c.m
}

// sorted returns the children ordered by rendered labels, so
// exposition is deterministic.
func (v *vec[M]) sorted() []child[M] {
	v.mu.Lock()
	kids := make([]child[M], 0, len(v.kids))
	for _, c := range v.kids {
		kids = append(kids, c)
	}
	v.mu.Unlock()
	slices.SortFunc(kids, func(a, b child[M]) int { return strings.Compare(a.labels, b.labels) })
	return kids
}

// lookupKey appends an unambiguous encoding of values to b: each value
// prefixed by its length.
func lookupKey(b []byte, values []string) []byte {
	for _, s := range values {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ vec[Counter] }

// With returns the child counter for the given label values
// (positional, matching the label names the vec was created with). A
// value-count mismatch returns a detached counter rather than
// panicking. Finding an existing child does not allocate.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ vec[Histogram] }

// With returns the child histogram for the given label values. A
// value-count mismatch returns a detached histogram rather than
// panicking. Finding an existing child does not allocate.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

// labelKey renders label pairs sorted by label name, ready to splice
// into an exposition line: `a="x",b="y"`.
func labelKey(labels, values []string) string {
	pairs := make([]string, len(labels))
	for i, l := range labels {
		pairs[i] = l + `="` + labelEscaper.Replace(values[i]) + `"`
	}
	slices.Sort(pairs)
	return strings.Join(pairs, ",")
}

// mergeLabels joins two pre-rendered label fragments, keeping the
// whole set sorted by label name (le sorts like any other label).
func mergeLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	pairs := append(strings.Split(a, ","), strings.Split(b, ",")...)
	slices.Sort(pairs)
	return strings.Join(pairs, ",")
}

// labelEscaper and helpEscaper apply the exposition format's escapes
// to label values and help strings.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// formatFloat renders a sample value; infinities use the exposition
// spelling.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// writeSample emits one exposition line.
func writeSample(w io.Writer, name, labels, value string) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	return err
}

// entry is one registered metric family.
type entry struct {
	name, help, typ string
	// self is the live metric (*Counter, *Gauge, *Histogram,
	// *CounterVec, *HistogramVec), both for get-or-create returns and
	// for exposition.
	self any
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// lookup returns the entry registered under name, installing the one
// built by mk on first use. The boolean reports whether the entry's
// metric has the wanted dynamic type.
func (r *Registry) lookup(name, help, typ string, mk func() any) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		//peerlint:allow lockheld — mk is a tiny allocation closure; holding the lock keeps first-use registration atomic
		e = &entry{name: name, help: help, typ: typ, self: mk()}
		r.entries[name] = e
	}
	return e.self, e.typ == typ
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	self, ok := r.lookup(name, help, "counter", func() any { return &Counter{} })
	if c, isCounter := self.(*Counter); ok && isCounter {
		return c
	}
	return &Counter{} // conflict: detached
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	self, ok := r.lookup(name, help, "gauge", func() any { return &Gauge{} })
	if g, isGauge := self.(*Gauge); ok && isGauge {
		return g
	}
	return &Gauge{}
}

// Histogram returns the histogram registered under name, creating it
// if needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	self, ok := r.lookup(name, help, "histogram", func() any { return &Histogram{} })
	if h, isHist := self.(*Histogram); ok && isHist {
		return h
	}
	return &Histogram{}
}

// CounterVec returns the labeled counter family registered under name,
// creating it if needed. An existing family keeps its original label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	self, ok := r.lookup(name, help, "counter", func() any { return &CounterVec{newVec[Counter](labels)} })
	if v, isVec := self.(*CounterVec); ok && isVec {
		return v
	}
	return &CounterVec{newVec[Counter](labels)}
}

// HistogramVec returns the labeled histogram family registered under
// name, creating it if needed. An existing family keeps its original
// label names.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	self, ok := r.lookup(name, help, "histogram", func() any { return &HistogramVec{newVec[Histogram](labels)} })
	if v, isVec := self.(*HistogramVec); ok && isVec {
		return v
	}
	return &HistogramVec{newVec[Histogram](labels)}
}

// Write renders every registered family in the text exposition
// format, families sorted by name and series sorted by label values,
// so output is deterministic for tests and diffing.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	slices.SortFunc(entries, func(a, b *entry) int { return strings.Compare(a.name, b.name) })

	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, helpEscaper.Replace(e.help), e.name, e.typ); err != nil {
			return err
		}
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

// writeEntry renders one family's sample lines.
func writeEntry(w io.Writer, e *entry) error {
	switch m := e.self.(type) {
	case *Counter:
		return writeSample(w, e.name, "", strconv.FormatUint(m.Value(), 10))
	case *Gauge:
		return writeSample(w, e.name, "", strconv.FormatInt(m.Value(), 10))
	case *Histogram:
		groups, lo, hi := m.snapshot()
		return writeHistogram(w, e.name, "", &groups, m.Sum(), lo, hi)
	case *CounterVec:
		for _, c := range m.sorted() {
			if err := writeSample(w, e.name, c.labels, strconv.FormatUint(c.m.Value(), 10)); err != nil {
				return err
			}
		}
		return nil
	case *HistogramVec:
		// Every series of the family shares one set of le bounds, the
		// union of their occupied ranges, so the buckets aggregate
		// across label values.
		kids := m.sorted()
		snaps := make([][histGroups]uint64, len(kids))
		lo, hi := histGroups, -1
		for i, c := range kids {
			var klo, khi int
			snaps[i], klo, khi = c.m.snapshot()
			lo, hi = min(lo, klo), max(hi, khi)
		}
		for i, c := range kids {
			if err := writeHistogram(w, e.name, c.labels, &snaps[i], c.m.Sum(), lo, hi); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("metrics: unknown metric type %T for %s", e.self, e.name)
	}
}

// Handler returns an http.Handler serving the exposition text — mount
// it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := r.Write(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, b.String())
	})
}

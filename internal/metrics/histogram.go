package metrics

import (
	"io"
	"math"
	"strconv"
	"sync/atomic"
)

// Histogram is a log-linear (HdrHistogram-style) histogram over
// non-negative float64 values: 32 sub-buckets per power of two bound
// the relative bucket width, and so the quantile error, to 1/32 ≈ 3.1%
// at every magnitude from 2^-32 to 2^64. It needs no bucket list and
// no unit: latencies in seconds, latencies in nanoseconds and per-round
// gains all resolve to the same relative precision.
//
// A bucket is identified by the sign, exponent and top five mantissa
// bits of the value's IEEE-754 encoding, so Observe is a shift and a
// few atomic adds. For non-negative integers below 2^53 the bucket
// lower bounds are the classic HdrHistogram ones: every integer below
// 64 has a bucket of its own, and above that each power of two splits
// into 32 equal steps.
//
// The zero value is ready to use; memory is fixed (about 24 KiB) and
// Observe never allocates. All methods are safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	// max and minInv hold Float64bits of the extremes. For
	// non-negative floats the bit patterns order like the values, so
	// both update with integer compare-and-swap; min is stored
	// complemented so the zero value means "no observations yet" even
	// though 0 is a recordable value.
	max    atomic.Uint64
	minInv atomic.Uint64
}

const (
	// histSubBits keeps 2^5 = 32 sub-buckets per power of two.
	histSubBits = 5
	// histMinExp and histMaxExp bound the resolved range to
	// [2^histMinExp, 2^(histMaxExp+1)): below it values share bucket 0
	// with zero, above it they share the top bucket. The range spans
	// sub-nanosecond seconds through int64 nanoseconds.
	histMinExp = -32
	histMaxExp = 63
	// histGroups counts the powers of two, plus the zero bucket.
	histGroups  = 1 + histMaxExp - histMinExp + 1
	histBuckets = 1 + (histGroups-1)<<histSubBits
	// histShift drops all but the top histSubBits mantissa bits.
	histShift = 52 - histSubBits
	// histFirstKey is the bucket key (bits >> histShift) of 2^histMinExp.
	histFirstKey = (1023 + histMinExp) << histSubBits
)

// bucketOf maps a non-negative, non-NaN value to its bucket.
func bucketOf(v float64) int {
	key := int(math.Float64bits(v)>>histShift) - histFirstKey
	switch {
	case key < 0:
		return 0
	case key >= histBuckets-1:
		return histBuckets - 1
	}
	return key + 1
}

// bucketLower returns the smallest value that lands in bucket i.
func bucketLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Float64frombits(uint64(i-1+histFirstKey) << histShift)
}

// Observe records one value. Negative values and NaN record as 0.
//
//peerlint:hotpath
func (h *Histogram) Observe(v float64) {
	if !(v > 0) {
		v = 0 // also folds -0, whose sign bit would misplace it
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	b := math.Float64bits(v)
	for old := h.max.Load(); b > old && !h.max.CompareAndSwap(old, b); old = h.max.Load() {
	}
	for old := h.minInv.Load(); ^b > old && !h.minInv.CompareAndSwap(old, ^b); old = h.minInv.Load() {
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	m := h.minInv.Load()
	if m == 0 {
		return 0
	}
	return math.Float64frombits(^m)
}

// Quantile returns the value at quantile q ∈ [0, 1]: the lower bound
// of the bucket holding the ⌊q·count⌋-th smallest observation (the
// first, if that rank is 0). The estimate is deterministic and
// conservative: never above the true quantile, and below it by at most
// the bucket's 3.1% width. q ≥ 1 returns the exact maximum; an empty
// histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	rank := max(uint64(max(q, 0)*float64(total)), 1)
	var cum uint64
	for i := range h.counts {
		if cum += h.counts[i].Load(); cum >= rank {
			return bucketLower(i)
		}
	}
	return h.Max()
}

// Merge folds o's observations into h: bucket counts and sums add,
// min and max merge exactly.
func (h *Histogram) Merge(o *Histogram) {
	n := o.count.Load()
	if n == 0 {
		return
	}
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(n)
	h.sum.Add(o.sum.Value())
	omax, ominInv := o.max.Load(), o.minInv.Load()
	for old := h.max.Load(); omax > old && !h.max.CompareAndSwap(old, omax); old = h.max.Load() {
	}
	for old := h.minInv.Load(); ominInv > old && !h.minInv.CompareAndSwap(old, ominInv); old = h.minInv.Load() {
	}
}

// Bucket is one non-empty bucket of a histogram snapshot.
type Bucket struct {
	// Lower is the bucket's inclusive lower bound.
	Lower float64
	// Count is the number of observations in the bucket.
	Count uint64
}

// Buckets returns the non-empty buckets in ascending order: the full
// distribution in compact form.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			out = append(out, Bucket{Lower: bucketLower(i), Count: c})
		}
	}
	return out
}

// snapshot reads the counts once, summed per power of two (group 0 is
// the zero bucket), and returns the occupied group range [lo, hi];
// lo > hi when the histogram is empty.
func (h *Histogram) snapshot() (groups [histGroups]uint64, lo, hi int) {
	lo, hi = histGroups, -1
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		g := 0
		if i > 0 {
			g = (i-1)>>histSubBits + 1
		}
		groups[g] += c
		lo, hi = min(lo, g), max(hi, g)
	}
	return groups, lo, hi
}

// writeHistogram renders one histogram series set from its snapshot:
// cumulative buckets, sum, and count. extra is the pre-rendered label
// pairs to merge into every series ("" for a plain histogram).
//
// The le bounds derive from the layout: one per power of two across
// the groups [lo, hi], plus +Inf. Buckets are half-open, so the series
// for bound 2^e counts observations below 2^e; that differs from the
// Prometheus "≤" reading only for observations exactly on a power of
// two. Reading the counts once keeps the series cumulative and _count
// equal to the +Inf bucket even under concurrent Observe calls.
func writeHistogram(w io.Writer, name, extra string, groups *[histGroups]uint64, sum float64, lo, hi int) error {
	// The top group also holds every clamped larger value, so only
	// +Inf bounds it.
	hi = min(hi, histGroups-2)
	var cum uint64
	for g := range groups {
		cum += groups[g]
		if g < lo || g > hi {
			continue
		}
		le := formatFloat(math.Ldexp(1, histMinExp+g))
		if err := writeSample(w, name+"_bucket", mergeLabels(extra, `le="`+le+`"`), strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_bucket", mergeLabels(extra, `le="+Inf"`), strconv.FormatUint(cum, 10)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", extra, formatFloat(sum)); err != nil {
		return err
	}
	return writeSample(w, name+"_count", extra, strconv.FormatUint(cum, 10))
}

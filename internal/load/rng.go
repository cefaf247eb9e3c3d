package load

import "peerlearn/internal/core"

// Rand is a tiny deterministic generator (splitmix64). The load
// harness cannot lean on the global math/rand source — shared state
// breaks replayability and the randsource analyzer bans it — and each
// component (plan, keyspace, clock jitter, request bodies) needs its
// own independent stream that is a pure function of the run seed.
// Splitmix64 is the standard seeding primitive: one uint64 of state,
// full 2^64 period over the counter, and excellent equidistribution
// for this purpose.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Distinct components
// should derive distinct seeds (e.g. seed ^ a fixed constant) so their
// streams never overlap.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	z := core.SplitMix64(r.state)
	r.state += 0x9e3779b97f4a7c15
	return z
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
// The construction (top 53 bits divided by 2^53) is exact in IEEE-754,
// so the stream is bit-identical on every platform.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n); n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

package baselines

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"peerlearn/internal/core"
)

// annealWindow is the number of schedule steps per parallel window.
// Within a window the temperature is constant and proposals touching
// disjoint group pairs execute concurrently; 1024 steps amortize the
// per-window fan-out/barrier over enough O(1)–O(t) proposals to keep
// workers busy while staying small against typical step counts
// (Sweeps·n), so the constant-temperature plateaus stay much finer
// than the cooling scale.
const annealWindow = 1024

// ParallelAnnealing is the simulated-annealing grouper scaled across
// GOMAXPROCS workers, bit-exact at every worker count. Three pieces
// make that determinism hold by construction rather than by luck:
//
//   - A counter-based proposal schedule: every proposal's group pair,
//     member slots, and acceptance draw are pure splitmix64 functions
//     of (seed, step index) — see proposalSchedule — so the stream
//     never depends on which worker consumes it, unlike a shared
//     *rand.Rand whose draw order is scheduler-dependent.
//   - Windowed execution with a first-wins conflict rule: steps are cut
//     into fixed windows; within one, a serial pre-scan marks each
//     proposal executable only if no earlier proposal in the window
//     touches either of its groups. Executable proposals touch disjoint
//     group pairs, so workers may evaluate and commit them in any order
//     without changing any proposal's inputs.
//   - A deterministic reduction: accepted deltas are folded into the
//     objective total in schedule order after the window's barrier
//     (float addition is not associative, so commit order must not
//     dictate summation order), and the temperature is constant within
//     a window, advancing by one cool^annealWindow multiply at the
//     barrier.
//
// The skipped (conflicting) proposals make the accept stream differ
// from the serial Annealing grouper's — ParallelAnnealing at one
// worker, not Annealing, is the bit-exactness reference — but both
// anneal the same objective with the same sweep budget, and the
// existing serial grouper is untouched.
type ParallelAnnealing struct {
	seed int64
	// Mode and Gain define the objective the annealer maximizes.
	Mode core.Mode
	Gain core.Gain
	// Sweeps is the number of proposed swaps per participant; higher
	// values anneal longer. Defaults to 20.
	Sweeps int
	// StartTemp is the initial temperature relative to the initial
	// objective value. Defaults to 0.1.
	StartTemp float64
	// Workers caps the window fan-out; 0 (the default) uses
	// runtime.GOMAXPROCS(0). Every value — including 1 — produces the
	// identical grouping, bit for bit.
	Workers int
}

// NewParallelAnnealing returns a parallel simulated-annealing policy
// for the given objective. Runs with equal seeds and inputs produce
// identical groupings at any worker count.
func NewParallelAnnealing(seed int64, mode core.Mode, gain core.Gain) *ParallelAnnealing {
	return &ParallelAnnealing{
		seed:      seed,
		Mode:      mode,
		Gain:      gain,
		Sweeps:    20,
		StartTemp: 0.1,
	}
}

// Name implements core.Grouper.
func (*ParallelAnnealing) Name() string { return "Parallel-Annealing" }

// Group implements core.Grouper. The whole call tree is replay-pure:
// rerunning with the same skills, k, and configuration reproduces the
// grouping bit for bit regardless of GOMAXPROCS, worker count, or
// scheduling.
//
//peerlint:deterministic
func (a *ParallelAnnealing) Group(s core.Skills, k int) core.Grouping {
	n := len(s)
	size := n / k
	perm := rand.New(rand.NewSource(a.seed)).Perm(n)
	g := make(core.Grouping, k)
	for i := 0; i < k; i++ {
		g[i] = perm[i*size : (i+1)*size : (i+1)*size]
	}
	if k < 2 || size < 1 {
		return g
	}

	ev := newSwapEvaluator(s, g, a.Mode, a.Gain).(laneSwapEvaluator)
	workers := a.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k/2 {
		// A window can execute at most k/2 disjoint group pairs, so
		// extra workers could only idle.
		workers = k / 2
	}
	if workers < 1 {
		workers = 1
	}
	ev.prepareLanes(workers)

	steps := a.Sweeps * n
	if steps < 1 {
		steps = 20 * n
	}
	temp := a.StartTemp * math.Max(ev.Total(), 1e-9)
	cool := math.Pow(1e-3, 1/float64(steps)) // decay to 0.1% of start
	coolW := math.Pow(cool, annealWindow)

	sched := newProposalSchedule(a.seed, k, size)
	touched := make([]int32, k)
	for i := range touched {
		touched[i] = -1
	}
	var (
		gas    [annealWindow]int32
		gbs    [annealWindow]int32
		exec   [annealWindow]bool
		acc    [annealWindow]bool
		deltas [annealWindow]float64
	)
	for base := 0; base < steps; base += annealWindow {
		wlen := steps - base
		if wlen > annealWindow {
			wlen = annealWindow
		}
		// Serial pre-scan: first proposal to claim a group in this
		// window wins; later proposals touching a claimed group are
		// skipped, making every executable proposal's group pair
		// disjoint from all others in the window.
		stamp := int32(base / annealWindow)
		for j := 0; j < wlen; j++ {
			ga, gb := sched.pair(base + j)
			gas[j], gbs[j] = int32(ga), int32(gb)
			if touched[ga] == stamp || touched[gb] == stamp {
				exec[j] = false
				continue
			}
			touched[ga] = stamp
			touched[gb] = stamp
			exec[j] = true
		}
		run := func(lane, lo, hi int) {
			for j := lo; j < hi; j++ {
				acc[j] = false
				if !exec[j] {
					continue
				}
				xa, xb, u := sched.draw(base + j)
				delta, p := ev.proposeLane(lane, int(gas[j]), xa, int(gbs[j]), xb)
				if delta >= 0 || u < math.Exp(delta/temp) {
					ev.commit(p)
					deltas[j] = delta
					acc[j] = true
				}
			}
		}
		if workers > 1 {
			var wg sync.WaitGroup
			for wi := 0; wi < workers; wi++ {
				lo := wi * wlen / workers
				hi := (wi + 1) * wlen / workers
				if lo == hi {
					continue
				}
				wg.Add(1)
				go func(lane, lo, hi int) {
					defer wg.Done()
					run(lane, lo, hi)
				}(wi, lo, hi)
			}
			wg.Wait()
		} else {
			run(0, 0, wlen)
		}
		// Deterministic reduction: accepted deltas fold into the total
		// in schedule order, never in commit-completion order.
		for j := 0; j < wlen; j++ {
			if acc[j] {
				ev.addTotal(deltas[j])
			}
		}
		temp *= coolW
	}
	return g
}

// proposalSchedule derives the annealer's entire proposal stream —
// group pair, member slots, and acceptance draw per step — as pure
// splitmix64 functions of (seed, step index). Counter-based generation
// is what makes the stream worker-independent: any step's values can
// be computed on any worker in any order, with no shared generator
// state to race on or to consume out of order.
type proposalSchedule struct {
	pairSeed uint64
	drawSeed uint64
	k, size  int
}

// newProposalSchedule domain-separates the pair and draw streams off
// the annealer seed.
func newProposalSchedule(seed int64, k, size int) proposalSchedule {
	return proposalSchedule{
		pairSeed: core.SplitMix64(uint64(seed)),
		drawSeed: core.SplitMix64(uint64(seed) ^ 0x9e3779b97f4a7c15),
		k:        k,
		size:     size,
	}
}

// pair returns the two distinct groups proposal i would swap across.
//
//peerlint:deterministic
func (ps proposalSchedule) pair(i int) (ga, gb int) {
	h := core.SplitMix64(ps.pairSeed + uint64(i))
	ga = int(uint64(uint32(h>>32)) * uint64(ps.k) >> 32)
	gb = int(uint64(uint32(h)) * uint64(ps.k-1) >> 32)
	if gb >= ga {
		gb++
	}
	return ga, gb
}

// draw returns proposal i's member slots and its uniform acceptance
// draw in [0, 1).
//
//peerlint:deterministic
func (ps proposalSchedule) draw(i int) (xa, xb int, u float64) {
	h := core.SplitMix64(ps.drawSeed + uint64(i))
	xa = int(uint64(uint32(h>>32)) * uint64(ps.size) >> 32)
	xb = int(uint64(uint32(h)) * uint64(ps.size) >> 32)
	u = float64(core.SplitMix64(h)>>11) * (1.0 / (1 << 53))
	return xa, xb, u
}

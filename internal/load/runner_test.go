package load

import (
	"errors"
	"testing"
	"time"
)

// slowFirstTarget stalls the virtual clock on op 0 and is instant for
// every other op.
type slowFirstTarget struct {
	clock Clock
	stall time.Duration
}

func (t *slowFirstTarget) Do(op Op) (int, error) {
	if op.Seq == 0 {
		t.clock.Sleep(t.stall)
	}
	return 200, nil
}

// TestRunNeverCreditsCoordinatedOmission is the load generator's core
// correctness property. Three ops arrive at 0/10/20ms; the first stalls
// the (jitter-free) clock for 50ms. A closed-loop generator would send
// ops 1 and 2 late and measure them as instant; an open-loop CO-safe
// generator charges the stall to every op queued behind it. The exact
// latencies must be 50, 40, and 30ms.
func TestRunNeverCreditsCoordinatedOmission(t *testing.T) {
	clock := NewVirtualClock(1, 0, 0) // no jitter: time moves only via Sleep
	sched, err := ParseSchedule("constant:100", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{{Seq: 0, Kind: OpRound}, {Seq: 1, Kind: OpRound}, {Seq: 2, Kind: OpRound}}
	tgt := &slowFirstTarget{clock: clock, stall: 50 * time.Millisecond}

	st := Run(ops, sched, tgt, RunConfig{Sequential: true, Clock: clock})

	h := st.PerOp[OpRound].Hist
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := h.Max(); got != float64(50*time.Millisecond) {
		t.Errorf("Max = %v, want 50ms (the stalled op)", time.Duration(got))
	}
	if got := h.Min(); got != float64(30*time.Millisecond) {
		t.Errorf("Min = %v, want 30ms (op 2, still charged from its intended send)", time.Duration(got))
	}
	if got := h.Sum(); got != float64(120*time.Millisecond) {
		t.Errorf("Sum = %v, want 120ms = 50+40+30", time.Duration(got))
	}
	if got := st.Elapsed; got != 50*time.Millisecond {
		t.Errorf("Elapsed = %v, want 50ms", got)
	}
}

// TestRunHonorsSchedule verifies the other half of open-loop behavior:
// when the target is instant, each op fires at its intended time and
// latencies are zero.
func TestRunHonorsSchedule(t *testing.T) {
	clock := NewVirtualClock(1, 0, 0)
	sched, err := ParseSchedule("constant:100", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Seq: i, Kind: OpStatus}
	}
	tgt := &slowFirstTarget{clock: clock} // zero stall: instant for all

	st := Run(ops, sched, tgt, RunConfig{Sequential: true, Clock: clock})

	h := st.PerOp[OpStatus].Hist
	if got := h.Max(); got != 0 {
		t.Errorf("Max = %v, want 0 for an instant target on schedule", time.Duration(got))
	}
	if got := st.Elapsed; got != 90*time.Millisecond {
		t.Errorf("Elapsed = %v, want 90ms (the last intended send)", got)
	}
}

// errTarget fails some ops at the transport level.
type errTarget struct{}

func (errTarget) Do(op Op) (int, error) {
	if op.Seq%2 == 1 {
		return 0, errors.New("connection refused")
	}
	return 503, nil
}

// TestRunCountsErrorsAndStatus verifies transport errors are kept out
// of the latency histogram and status classes are tallied.
func TestRunCountsErrorsAndStatus(t *testing.T) {
	clock := NewVirtualClock(1, 0, 0)
	sched, err := ParseSchedule("constant:1000", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 6)
	for i := range ops {
		ops[i] = Op{Seq: i, Kind: OpJoin}
	}
	st := Run(ops, sched, errTarget{}, RunConfig{Sequential: true, Clock: clock})

	rs := st.PerOp[OpJoin]
	if got := rs.Errors(); got != 3 {
		t.Errorf("Errors = %d, want 3", got)
	}
	if got := rs.Hist.Count(); got != 3 {
		t.Errorf("Hist.Count = %d, want 3 (errors excluded)", got)
	}
	if got := rs.Status()["5xx"]; got != 3 {
		t.Errorf("Status[5xx] = %d, want 3", got)
	}
}

// TestRunConcurrentCompletes exercises the concurrent dispatcher with
// a real clock: all ops complete, none are lost to the semaphore.
func TestRunConcurrentCompletes(t *testing.T) {
	sched, err := ParseSchedule("constant:100000", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Seq: i, Kind: OpRound}
	}
	tgt := &slowFirstTarget{clock: WallClock{}} // instant
	st := Run(ops, sched, tgt, RunConfig{MaxInFlight: 8})
	if got := st.PerOp[OpRound].Hist.Count(); got != n {
		t.Errorf("Count = %d, want %d", got, n)
	}
}

package health

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynagg/internal/gossip"
)

// virtualClock is a settable clock safe for concurrent readers.
type virtualClock struct {
	nanos atomic.Int64
}

func newVirtualClock() *virtualClock {
	c := &virtualClock{}
	c.nanos.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *virtualClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *virtualClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// beat is one scheduled heartbeat: wait `after` since the previous
// beat, then observe the span.
type beat struct{ after time.Duration }

// steady emits n beats at a fixed cadence.
func steady(n int, every time.Duration) []beat {
	out := make([]beat, n)
	for i := range out {
		out[i] = beat{after: every}
	}
	return out
}

// TestNoFalsePositives drives the detector with heartbeat schedules
// shaped like the chaos catalog's clock-skew and churn-storm faults
// and asserts a live-but-slow member is never declared dead. The
// detector is checked after every single beat — a transient Dead
// verdict mid-schedule is a failure even if the member recovers.
func TestNoFalsePositives(t *testing.T) {
	const hb = time.Second
	cases := []struct {
		name     string
		schedule []beat
		// allowSuspect: slow members may legitimately pass through
		// Suspect; the test only forbids Dead.
	}{
		{
			// Catalog clockskew: Period 2 — the skewed group's clock runs
			// at half rate, so its announces arrive every 2×cadence during
			// the fault window, normal before and after.
			name: "clockskew-period-2",
			schedule: append(append(
				steady(10, hb),
				steady(20, 2*hb)...),
				steady(10, hb)...),
		},
		{
			// Catalog clockskew: Period 4 — the worst skew in the catalog.
			// The very first 4×cadence gap must already clear the dead
			// threshold (DeadFactor 6 × base), then the EWMA adapts.
			name: "clockskew-period-4",
			schedule: append(append(
				steady(10, hb),
				steady(20, 4*hb)...),
				steady(10, hb)...),
		},
		{
			// Churn storm: cadence stretches irregularly — bursts of
			// on-time beats punctuated by 2–3× delays as the member fights
			// reconnect churn.
			name: "churnstorm-jittered",
			schedule: func() []beat {
				var s []beat
				delays := []time.Duration{hb, hb, 3 * hb, hb, 2 * hb, hb, hb, 5 * hb / 2, hb, 3 * hb, hb, hb}
				for r := 0; r < 4; r++ {
					for _, d := range delays {
						s = append(s, beat{after: d})
					}
				}
				return s
			}(),
		},
		{
			// Relayed observations: the gateway hears about the span only
			// via aged membership tables, each age ~200ms stale. Staleness
			// shifts every seen-time uniformly and must not matter.
			name:     "relayed-ages",
			schedule: steady(30, hb),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newVirtualClock()
			d := New(Config{HeartbeatEvery: hb, Now: clk.Now})
			age := time.Duration(0)
			if tc.name == "relayed-ages" {
				age = 200 * time.Millisecond
			}
			d.Observe(0, 4, "127.0.0.1:1", age)
			for i, b := range tc.schedule {
				clk.Advance(b.after)
				// Judge the silence just before the beat lands — the
				// worst instant of each gap.
				for _, sp := range d.Snapshot().Spans {
					if sp.State == Dead {
						t.Fatalf("beat %d (%s gap): live member declared dead (silence %v, meanGap %v)",
							i, b.after, sp.Silence, sp.MeanGap)
					}
				}
				d.Observe(0, 4, "127.0.0.1:1", age)
				for _, sp := range d.Snapshot().Spans {
					if sp.State != Alive {
						t.Fatalf("beat %d: fresh heartbeat left state %v, want alive", i, sp.State)
					}
				}
			}
		})
	}
}

// TestDeadDetection is the positive control: a member that stops
// heartbeating is promoted Suspect and then Dead, and the epoch
// advances at each transition.
func TestDeadDetection(t *testing.T) {
	const hb = 100 * time.Millisecond
	clk := newVirtualClock()
	d := New(Config{HeartbeatEvery: hb, Now: clk.Now})
	for i := 0; i < 10; i++ {
		d.Observe(0, 4, "127.0.0.1:1", 0)
		clk.Advance(hb)
	}
	snap := d.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].State != Alive {
		t.Fatalf("warm-up: %+v, want one alive span", snap.Spans)
	}
	epochAlive := snap.Epoch

	// Silence. Default thresholds: suspect at 3×hb, dead at 6×hb.
	clk.Advance(4 * hb)
	snap = d.Snapshot()
	if snap.Spans[0].State != Suspect {
		t.Fatalf("after 4×hb silence: state %v, want suspect", snap.Spans[0].State)
	}
	if snap.Epoch <= epochAlive {
		t.Fatalf("epoch %d did not advance on suspect transition (was %d)", snap.Epoch, epochAlive)
	}
	epochSuspect := snap.Epoch

	clk.Advance(3 * hb)
	snap = d.Snapshot()
	if snap.Spans[0].State != Dead {
		t.Fatalf("after 7×hb silence: state %v, want dead", snap.Spans[0].State)
	}
	if snap.Epoch <= epochSuspect {
		t.Fatal("epoch did not advance on dead transition")
	}
	if dead := d.DeadSpans(); len(dead) != 1 || dead[0].Lo != 0 {
		t.Fatalf("DeadSpans() = %+v, want span 0", dead)
	}
	if !snap.Degraded(16) {
		t.Fatal("Degraded(16) = false with a dead worker span")
	}
	if snap.Degraded(0) {
		t.Fatal("Degraded(0) = true — observer spans must not degrade")
	}

	// Resurrection: one fresh heartbeat flips it straight back.
	d.Observe(0, 4, "127.0.0.1:2", 0)
	snap = d.Snapshot()
	if snap.Spans[0].State != Alive {
		t.Fatalf("after fresh heartbeat: state %v, want alive", snap.Spans[0].State)
	}
	if snap.Spans[0].Addr != "127.0.0.1:2" {
		t.Fatalf("addr %q not updated on resurrection", snap.Spans[0].Addr)
	}
}

// TestOutOfOrderRelaysIgnored verifies a stale relayed age cannot roll
// a span's liveness backwards.
func TestOutOfOrderRelaysIgnored(t *testing.T) {
	clk := newVirtualClock()
	d := New(Config{HeartbeatEvery: time.Second, Now: clk.Now})
	d.Observe(0, 4, "a", 0)
	clk.Advance(time.Second)
	d.Observe(0, 4, "a", 0)
	fresh := d.Snapshot().Spans[0].Silence
	// A relay claiming the last heartbeat was 10s ago arrives late.
	d.Observe(0, 4, "a", 10*time.Second)
	if got := d.Snapshot().Spans[0].Silence; got != fresh {
		t.Fatalf("stale relay moved silence from %v to %v", fresh, got)
	}
	// Negative ages are nonsense and dropped.
	d.Observe(0, 4, "a", -time.Second)
	if got := d.Snapshot().Spans[0].Silence; got != fresh {
		t.Fatalf("negative age moved silence from %v to %v", fresh, got)
	}
}

// TestMaxGapClampsOutage: one long outage must not inflate the EWMA so
// far that a subsequent real death goes undetected.
func TestMaxGapClampsOutage(t *testing.T) {
	const hb = time.Second
	clk := newVirtualClock()
	d := New(Config{HeartbeatEvery: hb, Now: clk.Now})
	d.Observe(0, 4, "a", 0)
	clk.Advance(hb)
	d.Observe(0, 4, "a", 0)
	// An hour-long gap, then recovery.
	clk.Advance(time.Hour)
	d.Observe(0, 4, "a", 0)
	if mg := d.Snapshot().Spans[0].MeanGap; mg > 10*hb {
		t.Fatalf("meanGap %v exceeds MaxGap clamp", mg)
	}
	// With the clamp, 6×MaxGap silence still reaches Dead quickly.
	clk.Advance(61 * hb)
	if st := d.Snapshot().Spans[0].State; st != Dead {
		t.Fatalf("state %v after 61×hb silence, want dead", st)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Alive: "alive", Suspect: "suspect", Dead: "dead", State(9): "state(9)"} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

// TestConcurrentObserveSnapshot exercises the locking under the race
// detector: observers hammer from many goroutines while snapshots and
// epoch reads interleave.
func TestConcurrentObserveSnapshot(t *testing.T) {
	d := New(Config{HeartbeatEvery: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := gossip.NodeID(g * 4)
			for i := 0; i < 200; i++ {
				d.Observe(lo, lo+4, fmt.Sprintf("127.0.0.1:%d", g), 0)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			d.Snapshot()
			d.DeadSpans()
		}
	}()
	wg.Wait()
	if n := len(d.Snapshot().Spans); n != 4 {
		t.Fatalf("tracked %d spans, want 4", n)
	}
}

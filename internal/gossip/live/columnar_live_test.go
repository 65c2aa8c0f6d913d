package live

import (
	"context"
	"math"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// liveValues builds the i%100 value column used across the live tests
// and returns it with its true average.
func liveValues(n int) ([]float64, float64) {
	values := make([]float64, n)
	var sum float64
	for i := range values {
		values[i] = float64(i % 100)
		sum += values[i]
	}
	return values, sum / float64(n)
}

// TestLiveColumnarPushSumOverUDPWithLossConverges is the columnar
// mirror of the classic tentpole integration test, at 16x the
// population: Push-Sum on the dense-column backend, every cross-shard
// wave batch-encoded into loopback datagrams through eight sockets,
// 20% of batches dropped by the loss injector — and the estimate still
// lands within the live engine's usual tolerance.
func TestLiveColumnarPushSumOverUDPWithLossConverges(t *testing.T) {
	const n = 4096
	values, truth := liveValues(n)
	udp, err := transport.NewUDP(
		transport.WithLoopbackGroups(n, 8),
		transport.WithReadBuffer(4<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	lt := &transport.Lossy{T: udp, P: 0.2, Seed: 12}
	defer lt.Close()
	e, err := New(Config{
		Env: env.NewUniform(n), Population: NewColumnarPopulation(pushsumrevert.NewColumnar(values, pushsumrevert.Config{})),
		Model: gossip.Push, Seed: 11, Ticks: 80, Transport: lt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mean := meanOf(t, e.Estimates())
	if math.Abs(mean-truth) > 0.2*truth {
		t.Errorf("mean estimate %v, want ≈ %v", mean, truth)
	}
	if e.Sent() == 0 {
		t.Error("no messages sent")
	}
	if e.Dropped() == 0 {
		t.Error("20%% injected loss produced no counted drops")
	}
	t.Logf("mean %.2f truth %.2f sent %d dropped %d", mean, truth, e.Sent(), e.Dropped())
}

// TestLiveColumnarChannelGroupsConverges runs the columnar backend on
// the in-process batch plane: same shard/group routing as UDP, no
// sockets or codecs in the way, so a failure here is in the population
// or batch bookkeeping rather than the wire.
func TestLiveColumnarChannelGroupsConverges(t *testing.T) {
	const n = 1024
	values, truth := liveValues(n)
	e, err := New(Config{
		Env: env.NewUniform(n), Population: NewColumnarPopulation(pushsumrevert.NewColumnar(values, pushsumrevert.Config{})),
		Model: gossip.Push, Seed: 3, Ticks: 60,
		Transport: transport.NewChannelGroups(n, 0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mean := meanOf(t, e.Estimates())
	if math.Abs(mean-truth) > 0.2*truth {
		t.Errorf("mean estimate %v, want ≈ %v", mean, truth)
	}
}

// TestLiveColumnarRevertConverges covers the second wire hook:
// Push-Sum-Revert's adaptive damping is destination-indexed, so its
// DeliverWire fold must be safe against ticks-late cross-shard
// arrivals. The estimate must still converge to the average.
func TestLiveColumnarRevertConverges(t *testing.T) {
	const n = 1024
	values, truth := liveValues(n)
	e, err := New(Config{
		Env: env.NewUniform(n),
		Population: NewColumnarPopulation(
			pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: 0.01})),
		Model: gossip.Push, Seed: 17, Ticks: 60,
		Transport: transport.NewChannelGroups(n, 0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mean := meanOf(t, e.Estimates())
	if math.Abs(mean-truth) > 0.2*truth {
		t.Errorf("mean estimate %v, want ≈ %v", mean, truth)
	}
}

// TestLiveColumnarMomentsConverges runs Push-Sum-Revert's second value
// q across the batch plane: cross-group records carry (w, v, q) under
// WireKindMoments, so the standard deviation each host estimates must
// land within 5% of the population's. A record that dropped q would
// leave the cross-group mass without it and the estimate near zero.
// Paced, so no driver runs its ticks before the others start sending:
// a host that only hears its own group reverts toward its own value and
// underestimates the spread.
func TestLiveColumnarMomentsConverges(t *testing.T) {
	const n = 1024
	values, mean := liveValues(n)
	var sq float64
	for _, v := range values {
		sq += (v - mean) * (v - mean)
	}
	truth := math.Sqrt(sq / n)
	e, err := New(Config{
		Env: env.NewUniform(n),
		Population: NewColumnarPopulation(
			pushsumrevert.NewColumnarMoments(values, pushsumrevert.Config{Lambda: 0.01})),
		Model: gossip.Push, Seed: 17, Ticks: 80, TickEvery: time.Millisecond,
		Transport: transport.NewChannelGroups(n, 0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sd := meanOf(t, e.Estimates())
	if !(math.Abs(sd-truth) <= 0.05*truth) { // a NaN fails too
		t.Errorf("mean stddev estimate %v, want ≈ %v", sd, truth)
	}
	t.Logf("stddev %.3f truth %.3f", sd, truth)
}

// TestLiveColumnarSketchResetPacedConverges covers the third wire
// hook: Count-Sketch-Reset's RLE age matrices ride the batch plane and
// min-merge straight off the wire into the destination columns. Paced
// like the classic UDP variant, small sketch for CI (same tolerance).
func TestLiveColumnarSketchResetPacedConverges(t *testing.T) {
	const n = 512
	pace := 4 * time.Millisecond
	if raceEnabled {
		pace = 20 * time.Millisecond
	}
	e, err := New(Config{
		Env: env.NewUniform(n),
		Population: NewColumnarPopulation(sketchreset.NewColumnar(n, sketchreset.Config{
			Params: sketch.Params{Bins: 32, Levels: 16}, Identifiers: 1,
		})),
		Model: gossip.Push, Seed: 21, Ticks: 40, TickEvery: pace,
		Transport: transport.NewChannelGroups(n, 0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mean := meanOf(t, e.Estimates())
	if math.Abs(mean-n) > 0.4*n {
		t.Errorf("mean live count estimate %v, want ≈ %d", mean, n)
	}
}

// noBatchTransport strips the batch plane off a Transport: embedding
// the interface promotes only Transport's methods, so the wrapper is
// not a Batcher no matter what it wraps.
type noBatchTransport struct{ transport.Transport }

// TestLiveColumnarValidation pins the columnar backend's guard rails
// at New time: no partial populations, push model only, size match,
// and the transport must expose a batch plane.
func TestLiveColumnarValidation(t *testing.T) {
	const n = 16
	values, _ := liveValues(n)
	mkPop := func() Population {
		return NewColumnarPopulation(pushsumrevert.NewColumnar(values, pushsumrevert.Config{}))
	}
	ch := transport.NewChannelGroups(n, 0, 2)

	if _, err := New(Config{
		Env: env.NewUniform(n), Population: mkPop(), Ticks: 1,
		Transport: ch, Span: Span{Lo: 0, Hi: n / 2},
	}); err == nil {
		t.Error("columnar Span accepted")
	}
	if _, err := New(Config{
		Env: env.NewUniform(n), Population: mkPop(), Ticks: 1,
		Transport: ch, Model: gossip.PushPull,
	}); err == nil {
		t.Error("columnar push/pull accepted")
	}
	if _, err := New(Config{
		Env: env.NewUniform(2 * n), Population: mkPop(), Ticks: 1,
		Transport: transport.NewChannelGroups(2*n, 0, 2),
	}); err == nil {
		t.Error("population/environment size mismatch accepted")
	}
	if _, err := New(Config{
		Env: env.NewUniform(n), Population: mkPop(), Ticks: 1,
		Transport: noBatchTransport{ch},
	}); err == nil {
		t.Error("transport without a batch plane accepted")
	}
	if _, err := New(Config{
		Env: env.NewUniform(n), Population: mkPop(), Ticks: 1, Transport: ch,
	}); err != nil {
		t.Errorf("valid columnar config rejected: %v", err)
	}
}

package sketchreset

import (
	"math"
	"testing"

	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
	"dynagg/internal/xrand"
)

// referenceEstimate is the estimator as Node.refreshEstimate and
// Columnar.refreshEstimate each spelled it before they shared one:
// evaluated from scratch, through the public accessors, it is the
// oracle for the shared function and for Node's on-demand derivation.
func referenceEstimate(p sketch.Params, cutoff []float64, scale float64, counterAt func(bin, level int) uint8) float64 {
	any := false
	var sumR int
	for bin := 0; bin < p.Bins; bin++ {
		r := 0
		for k := 0; k < p.Levels; k++ {
			c := counterAt(bin, k)
			if c != Never && float64(c) <= cutoff[k] {
				r++
				any = true
			} else {
				break
			}
		}
		sumR += r
	}
	if !any {
		return 0
	}
	avgR := float64(sumR) / float64(p.Bins)
	return float64(p.Bins) * math.Exp2(avgR) / sketch.Phi / scale
}

func (n *Node) referenceEstimate() float64 {
	return referenceEstimate(n.cfg.Params, n.cutoff, n.cfg.Scale, n.CounterAt)
}

// randomMatrix fills a matrix with ages that straddle every cutoff in
// use (7+k/4 … 14+k/2 over 12 levels) and the saturated MaxAge; never
// in 16 cells hold Never instead. A mostly-Never matrix merges in a few
// bits at a time, so a sequence of merges and agings keeps the estimate
// moving instead of pinning every counter near zero.
func randomMatrix(rng *xrand.Rand, size, never int) []uint8 {
	m := make([]uint8, size)
	for i := range m {
		switch {
		case rng.Intn(16) < never:
			m[i] = Never
		case rng.Intn(8) == 0:
			m[i] = MaxAge
		default:
			m[i] = uint8(rng.Intn(24))
		}
	}
	return m
}

// estimateConfigs are the cutoff shapes the figure drivers use, plus a
// fractional one whose float compare an integer cutoff would get wrong.
func estimateConfigs() map[string]Config {
	return map[string]Config{
		"default":    {Params: smallParams, Identifiers: 3},
		"no decay":   {Params: smallParams, Identifiers: 3, NoDecay: true},
		"slow":       {Params: smallParams, Identifiers: 100, Scale: 100, Cutoff: func(k int) float64 { return 14 + float64(k)/2 }},
		"fractional": {Params: smallParams, Identifiers: 1, Cutoff: func(k int) float64 { return 6.5 + 0.3*float64(k) }},
	}
}

// TestEstimateTracksEveryCounterWrite is what proves no write path
// misses the stale mark: after any seeded interleaving of BeginRound,
// Receive in its three payload forms, Exchange (both ends checked) and
// MergeWire, Estimate equals a from-scratch evaluation of the matrix.
// Estimate is read at random points, so each write path is exercised
// from the clean state too.
func TestEstimateTracksEveryCounterWrite(t *testing.T) {
	for name, cfg := range estimateConfigs() {
		rng := xrand.NewStream(7, uint64(len(name)))
		a, b := New(0, cfg), New(1, cfg)
		check := func(step int, op string, nodes ...*Node) {
			t.Helper()
			for _, n := range nodes {
				want := n.referenceEstimate()
				if got, ok := n.Estimate(); !ok || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: step %d after %s: host %d Estimate() = %v, %v; the matrix evaluates to %v", name, step, op, n.ID(), got, ok, want)
				}
			}
		}
		check(0, "New", a, b)
		for step := 1; step <= 3000; step++ {
			matrix := randomMatrix(rng, len(a.counters), 15)
			op := "BeginRound" // half the steps, so set bits keep aging out
			switch rng.Intn(12) {
			default:
				a.BeginRound(step)
			case 1:
				op = "Receive([]uint8)"
				a.Receive(matrix)
			case 2:
				op = "Receive(*Counters)"
				a.Receive(&Counters{Ages: matrix})
			case 3:
				op = "Receive(*Packed)"
				packed, err := NewPacked(wire.AppendCounters(nil, matrix))
				if err != nil {
					t.Fatal(err)
				}
				a.Receive(packed)
			case 4:
				op = "MergeWire"
				a.MergeWire(wire.AppendCounters(nil, matrix))
			case 5:
				op = "Exchange (initiator)"
				b.Receive(matrix)
				check(step, "Receive", b) // b is clean going into the exchange
				a.Exchange(b)
			case 6:
				op = "Exchange (responder)"
				b.Receive(matrix)
				check(step, "Receive", b)
				b.Exchange(a)
			}
			if rng.Bool() {
				check(step, op, a, b)
			}
		}
		check(3001, "the last step", a, b)
	}
}

// TestNodeAndColumnarEstimateAlike loads the same random matrices into
// a Node and a Columnar host and requires the same estimate and the
// same derived bits from both, and from the reference.
func TestNodeAndColumnarEstimateAlike(t *testing.T) {
	for name, cfg := range estimateConfigs() {
		rng := xrand.NewStream(11, uint64(len(name)))
		const hosts = 3
		col := NewColumnar(hosts, cfg)
		for trial := 0; trial < 300; trial++ {
			id := gossip.NodeID(rng.Intn(hosts))
			matrix := randomMatrix(rng, col.stride, 2)
			n := New(id, cfg)
			copy(n.counters, matrix)
			n.stale = true
			copy(col.counters[int(id)*col.stride:], matrix)
			col.refreshEstimate(int(id))

			want := n.referenceEstimate()
			got, _ := n.Estimate()
			colGot, _ := col.Estimate(id)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(colGot) != math.Float64bits(want) {
				t.Fatalf("%s: trial %d: Node %v, Columnar %v, reference %v for matrix %v", name, trial, got, colGot, want, matrix)
			}
			for bin := 0; bin < cfg.Params.Bins; bin++ {
				for k := 0; k < cfg.Params.Levels; k++ {
					c := matrix[bin*cfg.Params.Levels+k]
					set := c != Never && float64(c) <= n.cutoff[k]
					if n.BitSet(bin, k) != set || col.BitSet(id, bin, k) != set {
						t.Fatalf("%s: trial %d: bit (%d,%d) age %d: Node %v, Columnar %v, want %v",
							name, trial, bin, k, c, n.BitSet(bin, k), col.BitSet(id, bin, k), set)
					}
				}
			}
		}
	}
}

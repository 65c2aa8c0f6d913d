package wire_test

import (
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

// convergedMatrices gossips 384 Count-Sketch-Reset hosts for 40 rounds
// and returns two hosts' 64×24 matrices as they would then go on the
// wire: ~75 % Never, short runs of small ages elsewhere.
func convergedMatrices(tb testing.TB) (a, b []uint8) {
	const n, rounds = 384, 40
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1})
	}
	e, err := gossip.NewEngine(gossip.Config{Env: env.NewUniform(n), Agents: agents, Model: gossip.Push, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	e.Run(rounds)
	snapshot := func(id gossip.NodeID) []uint8 {
		out := agents[id].Emit(rounds, e.Rng(id), func() (gossip.NodeID, bool) { return 0, true })
		return out[0].Payload.(*sketchreset.Counters).Ages
	}
	return snapshot(1), snapshot(2)
}

// BenchmarkCounters times the counter codec and kernels on one
// converged matrix — the tight loop to iterate on when changing them.
func BenchmarkCounters(b *testing.B) {
	mine, theirs := convergedMatrices(b)
	enc := wire.AppendCounters(nil, theirs)
	b.Logf("%d counters encode to %d bytes", len(theirs), len(enc))
	buf := make([]byte, 0, 4096)
	dst := make([]uint8, len(mine))

	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendCounters(buf[:0], theirs)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeCounters(dst, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("foldmin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				copy(dst, mine) // a fold is idempotent; restart from unmerged state
			}
			if _, err := wire.DecodeCountersMin(dst, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("age", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				copy(dst, mine) // before everything saturates
			}
			wire.AgeCounters(dst)
		}
	})
	b.Run("min", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				copy(dst, mine)
			}
			wire.MinCounters(dst, theirs)
		}
	})
}

package experiments

import (
	"fmt"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/wire"
)

// AblationBandwidth (A9) puts numbers on §IV-B's bandwidth argument:
// "Push-Sum-Revert requires several orders of magnitude less bandwidth
// and storage space than Count-Sketch-Reset". Each protocol runs to
// convergence on a uniform network, then its post-convergence gossip
// payload is serialized with the wire encodings a careful radio
// implementation would use. The series reports bytes per message;
// every protocol sends O(1) messages per host per round, so the same
// ordering holds for bytes per round.
func AblationBandwidth(n int, seed uint64) Result {
	res := Result{
		Name:   fmt.Sprintf("wire bytes per gossip message after convergence (n=%d, 64×24 sketches)", n),
		XLabel: "protocol index",
		YLabel: "bytes per message",
	}
	values := uniformValues(n, seed+7)

	runEngine := func(agents []gossip.Agent, model gossip.Model) *gossip.Engine {
		e := env.NewUniform(n)
		engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: model, Seed: seed})
		if err != nil {
			panic(err)
		}
		engine.Run(25)
		return engine
	}

	type row struct {
		name  string
		bytes int
	}
	var rows []row

	// Push-Sum-Revert: a mass vector.
	{
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i], pushsumrevert.Config{Lambda: 0.1})
		}
		engine := runEngine(agents, gossip.Push)
		m := engine.Agents()[0].(*pushsumrevert.Node).Mass()
		rows = append(rows, row{"push-sum-revert (mass)", len(wire.AppendMass(nil, m.W, m.V))})
	}
	// Moments: Push-Sum-Revert's mass vector with the second value q.
	{
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = pushsumrevert.NewMoments(gossip.NodeID(i), values[i], pushsumrevert.Config{Lambda: 0.1})
		}
		engine := runEngine(agents, gossip.Push)
		// The payload the host would gossip next carries its q share.
		isolated := func() (gossip.NodeID, bool) { return 0, false }
		out := engine.Agents()[0].(*pushsumrevert.Node).Emit(engine.Round(), nil, isolated)
		m := out[0].Payload.(*pushsumrevert.MomentsMass)
		rows = append(rows, row{"moments (mass w,v,q)", len(wire.AppendMass3(nil, m.W, m.V, m.Q))})
	}
	// Extremes: the candidate table.
	{
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = extremes.New(gossip.NodeID(i), values[i], extremes.Config{Mode: extremes.Max})
		}
		engine := runEngine(agents, gossip.PushPull)
		table := engine.Agents()[0].(*extremes.Node).Table()
		cands := make([]wire.Candidate, len(table))
		for i, c := range table {
			cands[i] = wire.Candidate{Value: c.Value, Owner: int32(c.Owner), Age: int32(c.Age)}
		}
		rows = append(rows, row{"extremes (candidate table)", len(wire.AppendCandidates(nil, cands))})
	}
	// Static Sketch-Count: the bit vector, one word per bin. A static
	// count is Count-Sketch-Reset read with an infinite cutoff, so the
	// words are that host's derived bits.
	{
		p := sketch.DefaultParams
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
				Params: p, Identifiers: 1, NoDecay: true,
			})
		}
		engine := runEngine(agents, gossip.PushPull)
		node := engine.Agents()[0].(*sketchreset.Node)
		bits := make([]uint64, p.Bins)
		for bin := range bits {
			for k := 0; k < p.Levels; k++ {
				if node.BitSet(bin, k) {
					bits[bin] |= 1 << k
				}
			}
		}
		rows = append(rows, row{"sketch-count (bit vector)", len(wire.AppendSketchBits(nil, bits))})
	}
	// Count-Sketch-Reset: the RLE counter matrix, post-convergence.
	{
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
				Params: sketch.DefaultParams, Identifiers: 1,
			})
		}
		engine := runEngine(agents, gossip.PushPull)
		node := engine.Agents()[0].(*sketchreset.Node)
		p := sketch.DefaultParams
		counters := make([]uint8, p.Bins*p.Levels)
		for bin := 0; bin < p.Bins; bin++ {
			for k := 0; k < p.Levels; k++ {
				counters[bin*p.Levels+k] = node.CounterAt(bin, k)
			}
		}
		rows = append(rows, row{"count-sketch-reset (RLE counters)", len(wire.AppendCounters(nil, counters))})
		rows = append(rows, row{"count-sketch-reset (raw counters)", len(counters)})
	}

	series := stats.Series{Label: "bytes/message"}
	for i, r := range rows {
		series.Append(float64(i), float64(r.bytes))
		res.Notef("%-34s %6d bytes", r.name, r.bytes)
	}
	res.Series = append(res.Series, series)

	massBytes := rows[0].bytes
	sketchBytes := rows[len(rows)-2].bytes
	res.Notef("ratio count-sketch-reset / push-sum-revert: %.0fx (§IV-B: \"orders of magnitude\")",
		float64(sketchBytes)/float64(massBytes))
	return res
}

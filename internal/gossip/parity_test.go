package gossip_test

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/epoch"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchcount"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// emitOnly hides a protocol node's EmitAppend (and Exchange) behind a
// plain gossip.Agent, forcing the engine down the Emit adapter path.
type emitOnly struct{ gossip.Agent }

// TestEmitAppendMatchesEmit pins the engine's two routing paths for
// per-host agents against each other: an agent seen only as a
// gossip.Agent goes through the adapter that calls Emit and routes its
// detached payloads, and one that is a gossip.AppendEmitter has its
// scratch-backed EmitAppend envelopes routed directly. Every protocol's
// Emit is EmitAppend plus payload detaching, so the emission math is
// shared; the two runs must still be byte-identical.
func TestEmitAppendMatchesEmit(t *testing.T) {
	const (
		n      = 97
		rounds = 12
		seed   = 5
	)
	srCfg := sketchreset.Config{
		Params:      sketch.Params{Bins: 8, Levels: 12},
		Identifiers: 1,
	}
	protocols := map[string]func(i int) gossip.Agent{
		"pushsum": func(i int) gossip.Agent {
			return pushsumrevert.New(gossip.NodeID(i), float64(i%53), pushsumrevert.Config{})
		},
		"pushsumrevert": func(i int) gossip.Agent {
			return pushsumrevert.New(gossip.NodeID(i), float64(i%53),
				pushsumrevert.Config{Lambda: 0.02})
		},
		"pushsumrevert-fulltransfer": func(i int) gossip.Agent {
			return pushsumrevert.New(gossip.NodeID(i), float64(i%53),
				pushsumrevert.Config{Lambda: 0.02, FullTransfer: true, Parcels: 4, Window: 3})
		},
		"pushsumrevert-adaptive": func(i int) gossip.Agent {
			return pushsumrevert.New(gossip.NodeID(i), float64(i%53),
				pushsumrevert.Config{Lambda: 0.02, Adaptive: true})
		},
		"moments": func(i int) gossip.Agent {
			return pushsumrevert.NewMoments(gossip.NodeID(i), float64(i%53), pushsumrevert.Config{Lambda: 0.02})
		},
		"epoch": func(i int) gossip.Agent {
			return epoch.New(gossip.NodeID(i), float64(i%53), epoch.Config{Length: 6})
		},
		"extremes": func(i int) gossip.Agent {
			return extremes.New(gossip.NodeID(i), float64((i*31)%n), extremes.Config{Mode: extremes.Max})
		},
		"sketchcount": func(i int) gossip.Agent {
			return sketchcount.NewCount(gossip.NodeID(i), sketch.Params{Bins: 8, Levels: 12})
		},
		"sketchreset": func(i int) gossip.Agent {
			return sketchreset.New(gossip.NodeID(i), srCfg)
		},
		"multi": func(i int) gossip.Agent {
			return multi.New(gossip.NodeID(i),
				map[string]float64{"load": float64(i % 53), "temp": float64(i % 7)},
				srCfg, pushsumrevert.Config{Lambda: 0.02})
		},
	}
	for name, mk := range protocols {
		t.Run(name, func(t *testing.T) {
			run := func(hideAppend bool) ([]uint64, int64, int64) {
				agents := make([]gossip.Agent, n)
				for i := range agents {
					a := mk(i)
					if hideAppend {
						if _, ok := a.(gossip.AppendEmitter); !ok {
							t.Fatalf("%T does not implement gossip.AppendEmitter", a)
						}
						a = emitOnly{a}
					}
					agents[i] = a
				}
				engine, err := gossip.NewEngine(gossip.Config{
					Env:    env.NewUniform(n),
					Agents: agents,
					Model:  gossip.Push,
					Seed:   seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				engine.Run(rounds)
				bits := make([]uint64, 0, n)
				for _, a := range agents {
					v, ok := a.Estimate()
					if !ok {
						v = math.Inf(-1)
					}
					bits = append(bits, math.Float64bits(v))
				}
				return bits, engine.Messages(), engine.Contacts()
			}
			wantBits, wantMsgs, wantContacts := run(true) // Emit adapter path
			gotBits, gotMsgs, gotContacts := run(false)   // EmitAppend path
			if gotMsgs != wantMsgs {
				t.Errorf("Messages = %d via EmitAppend, %d via Emit", gotMsgs, wantMsgs)
			}
			if gotContacts != wantContacts {
				t.Errorf("Contacts = %d via EmitAppend, %d via Emit", gotContacts, wantContacts)
			}
			for i := range wantBits {
				if gotBits[i] != wantBits[i] {
					t.Errorf("host %d estimate bits %#x via EmitAppend, %#x via Emit",
						i, gotBits[i], wantBits[i])
					break
				}
			}
		})
	}
}

package integration

import (
	"fmt"
	"slices"
	"testing"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/epoch"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchcount"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

// TestReceiveIgnoresForeignPayloads hands every protocol's Receive the
// payloads of every protocol: the pointer forms Emit sends, the value
// forms a socket transport decodes or a multi.Bundle carries, the
// packed wire forms, the value forms no sender produces any more, and
// values of no protocol at all. The paper's radio loses messages, so a
// payload a host cannot use is one more lost message: Receive must not
// panic on it, and the host must end the round with the estimate it
// would have had without it. Each form a protocol accepts must move
// that estimate, so the test cannot pass by ignoring everything.
func TestReceiveIgnoresForeignPayloads(t *testing.T) {
	count := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	big := sketchreset.New(7, sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 500})
	ages := big.Emit(0, nil, func() (gossip.NodeID, bool) { return 0, true })[0].Payload.(*sketchreset.Counters).Ages
	countsPacked, err := sketchreset.NewPacked(wire.AppendCounters(nil, ages))
	if err != nil {
		t.Fatal(err)
	}
	mass := pushsumrevert.Mass{W: 1, V: 1000}
	moments := pushsumrevert.MomentsMass{Mass: mass, Q: 2e6}
	message := epoch.Message{W: 1, V: 1000}
	candidates := []extremes.Candidate{{Value: 1000, Owner: 99}}
	bundle := multi.Bundle{Count: ages, Masses: []multi.NamedMass{{Name: "a", Mass: mass}}}
	bundleBytes, err := multi.AppendBundle(nil, &bundle)
	if err != nil {
		t.Fatal(err)
	}
	bundlePacked, err := multi.NewPacked(bundleBytes)
	if err != nil {
		t.Fatal(err)
	}
	payloads := []struct {
		name string
		p    any
	}{
		{"*pushsumrevert.Mass", &mass},
		{"pushsumrevert.Mass", mass},
		{"*pushsumrevert.MomentsMass", &moments},
		{"pushsumrevert.MomentsMass", moments},
		{"*epoch.Message", &message},
		{"epoch.Message", message},
		{"*extremes.Table", &extremes.Table{Candidates: candidates}},
		{"[]extremes.Candidate", candidates},
		{"*sketchreset.Counters", &sketchreset.Counters{Ages: ages}},
		{"[]uint8", ages},
		{"*sketchreset.Packed", countsPacked},
		{"*sketch.Sketch", sketchcount.NewSum(7, sketch.DefaultParams, 500).Sketch()},
		{"multi.Bundle", bundle},
		{"*multi.Bundle", &bundle},
		{"*multi.Packed", bundlePacked},
		{"nil", nil},
		{"int", 42},
		{"string", "mass"},
	}
	protocols := []struct {
		name    string
		build   func() gossip.Agent
		accepts []string
	}{
		{"pushsumrevert", func() gossip.Agent { return pushsumrevert.New(0, 1, pushsumrevert.Config{Lambda: 0.1}) },
			[]string{"*pushsumrevert.Mass", "pushsumrevert.Mass", "*pushsumrevert.MomentsMass"}},
		{"moments", func() gossip.Agent { return pushsumrevert.NewMoments(0, 1, pushsumrevert.Config{Lambda: 0.1}) },
			[]string{"*pushsumrevert.Mass", "pushsumrevert.Mass", "*pushsumrevert.MomentsMass"}},
		{"epoch", func() gossip.Agent { return epoch.New(0, 1, epoch.Config{Length: 10}) },
			[]string{"*epoch.Message"}},
		{"extremes", func() gossip.Agent { return extremes.New(0, 1, extremes.Config{Mode: extremes.Max}) },
			[]string{"*extremes.Table"}},
		{"sketchreset", func() gossip.Agent { return sketchreset.New(0, count) },
			[]string{"*sketchreset.Counters", "[]uint8", "*sketchreset.Packed"}},
		{"sketchcount", func() gossip.Agent { return sketchcount.NewCount(0, sketch.DefaultParams) },
			[]string{"*sketch.Sketch"}},
		{"multi", func() gossip.Agent {
			return multi.New(0, map[string]float64{"a": 1}, count, pushsumrevert.Config{Lambda: 0.1})
		}, []string{"multi.Bundle", "*multi.Bundle", "*multi.Packed"}},
	}
	// round runs one round in which the host receives payloads and
	// returns the estimate it ends with.
	round := func(a gossip.Agent, payloads ...any) string {
		a.BeginRound(0)
		for _, p := range payloads {
			a.Receive(p)
		}
		a.EndRound(0)
		est, ok := a.Estimate()
		return fmt.Sprint(est, ok)
	}
	for _, pr := range protocols {
		want := round(pr.build())
		for _, pl := range payloads {
			accepted := slices.Contains(pr.accepts, pl.name)
			t.Run(pr.name+"/"+pl.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Receive panicked: %v", r)
					}
				}()
				switch got := round(pr.build(), pl.p); {
				case accepted && got == want:
					t.Errorf("an accepted payload left the estimate at %s", got)
				case !accepted && got != want:
					t.Errorf("a foreign payload moved the estimate from %s to %s", want, got)
				}
			})
		}
	}
}

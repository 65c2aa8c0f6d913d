package gossip_test

import (
	"fmt"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/sysmem"
	"dynagg/internal/xrand"
)

// massAgent is a minimal Push-Sum-like agent for engine overhead
// benchmarks (the real protocols live in internal/protocol). It
// implements both emission contracts so the benchmarks measure the
// zero-allocation message plane, as the real protocols do.
type massAgent struct {
	id   gossip.NodeID
	w, v float64
	iw   float64
	iv   float64
	out  [2]float64 // EmitAppend scratch payload
}

func (a *massAgent) BeginRound(int) { a.iw, a.iv = 0, 0 }
func (a *massAgent) Emit(_ int, _ *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	if !ok {
		return []gossip.Envelope{{To: a.id, Payload: [2]float64{a.w, a.v}}}
	}
	h := [2]float64{a.w / 2, a.v / 2}
	return []gossip.Envelope{{To: peer, Payload: h}, {To: a.id, Payload: h}}
}
func (a *massAgent) EmitAppend(dst []gossip.Envelope, _ int, _ *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	if !ok {
		a.out = [2]float64{a.w, a.v}
		return append(dst, gossip.Envelope{To: a.id, Payload: &a.out})
	}
	a.out = [2]float64{a.w / 2, a.v / 2}
	return append(dst, gossip.Envelope{To: peer, Payload: &a.out}, gossip.Envelope{To: a.id, Payload: &a.out})
}
func (a *massAgent) Receive(p any) {
	var m [2]float64
	switch v := p.(type) {
	case *[2]float64:
		m = *v
	case [2]float64:
		m = v
	}
	a.iw += m[0]
	a.iv += m[1]
}
func (a *massAgent) EndRound(int)              { a.w, a.v = a.iw, a.iv }
func (a *massAgent) Estimate() (float64, bool) { return a.v / a.w, true }
func (a *massAgent) Exchange(peer gossip.Exchanger) {
	p := peer.(*massAgent)
	mw, mv := (a.w+p.w)/2, (a.v+p.v)/2
	a.w, p.w = mw, mw
	a.v, p.v = mv, mv
}

type benchEnv struct{ n int }

func (e benchEnv) Size() int                     { return e.n }
func (e benchEnv) Alive(gossip.NodeID, int) bool { return true }
func (e benchEnv) AliveRange(lo, hi, _ int, dst []bool) {
	for i := range dst[:hi-lo] {
		dst[i] = true
	}
}
func (e benchEnv) Advance(int) {}
func (e benchEnv) Pick(id gossip.NodeID, _ int, rng *xrand.Rand) (gossip.NodeID, bool) {
	for {
		c := gossip.NodeID(rng.Intn(e.n))
		if c != id {
			return c, true
		}
	}
}

func benchEngine(b *testing.B, n int, model gossip.Model, workers int) *gossip.Engine {
	b.Helper()
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = &massAgent{id: gossip.NodeID(i), w: 1, v: float64(i)}
	}
	e, err := gossip.NewEngine(gossip.Config{Env: benchEnv{n}, Agents: agents, Model: model, Seed: 1, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchValues is the shared Push-Sum workload for the AoS/columnar
// comparison benchmarks.
func benchValues(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i % 101)
	}
	return vs
}

// benchPushSumEngine builds a real Push-Sum engine (Push-Sum-Revert at
// λ = 0) over the uniform environment on either execution path, under
// either gossip model.
func benchPushSumEngine(b *testing.B, n, workers int, model gossip.Model, columnar bool) *gossip.Engine {
	b.Helper()
	vs := benchValues(n)
	cfg := gossip.Config{Env: env.NewUniform(n), Model: model, Seed: 1, Workers: workers}
	pcfg := pushsumrevert.Config{Lambda: 0}
	if columnar {
		cfg.Columnar = pushsumrevert.NewColumnar(vs, pcfg)
	} else {
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = pushsumrevert.New(gossip.NodeID(i), vs[i], pcfg)
		}
		cfg.Agents = agents
	}
	e, err := gossip.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// stepRounds is the common measured loop: warm the engine past the
// buffer-growth phase, then time steady-state rounds. reportRSS adds
// the process peak-RSS gauge for the memory-ceiling trajectory plus
// the per-round message volume, so the 1M rows carry (ns/round,
// msgs/round, peak-rss-bytes) together.
func stepRounds(b *testing.B, e *gossip.Engine, reportRSS bool) {
	b.Helper()
	e.Run(2) // warm-up: emission columns and outboxes reach capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if reportRSS {
		b.ReportMetric(float64(sysmem.PeakRSSBytes()), "peak-rss-bytes")
		b.ReportMetric(float64(e.Messages()/int64(e.Round())), "msgs/round")
	}
}

// BenchmarkRoundPush measures one push round over 10,000 hosts.
func BenchmarkRoundPush(b *testing.B) {
	e := benchEngine(b, 10000, gossip.Push, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkRoundPushPull measures one push/pull round over 10,000
// hosts.
func BenchmarkRoundPushPull(b *testing.B) {
	e := benchEngine(b, 10000, gossip.PushPull, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngine is the engine's perf trajectory in one table.
//
// The first block is the historical engine-overhead matrix (a minimal
// mass agent, both models, one shard vs several) — names unchanged
// so benchstat tracks them across PRs. The second block is the
// execution-path comparison on the real Push-Sum protocol: aos runs
// one heap node per host behind the Agent interface, columnar runs
// the struct-of-arrays path (flat loops over population-wide state
// columns, ColMsg message plane). The third block is the
// million-host configuration the columnar path exists for — skipped
// under -short, with peak RSS recorded alongside ns/round.
func BenchmarkEngine(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, model := range []gossip.Model{gossip.Push, gossip.PushPull} {
			for _, workers := range []int{0, gossip.DefaultWorkers()} {
				name := fmt.Sprintf("n=%d/%s/workers=%d", n, model, workers)
				b.Run(name, func(b *testing.B) {
					e := benchEngine(b, n, model, workers)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.Step()
					}
				})
			}
		}
	}
	for _, n := range []int{10000, 100000} {
		for _, model := range []gossip.Model{gossip.Push, gossip.PushPull} {
			for _, path := range []string{"pushsum-aos", "pushsum-columnar"} {
				for _, workers := range []int{0, gossip.DefaultWorkers()} {
					name := fmt.Sprintf("n=%d/%s/%s/workers=%d", n, model, path, workers)
					b.Run(name, func(b *testing.B) {
						e := benchPushSumEngine(b, n, workers, model, path == "pushsum-columnar")
						stepRounds(b, e, false)
					})
				}
			}
		}
	}
	// N=1,000,000: the ROADMAP's million-host target, both gossip
	// models. The AoS runs are the "before" column of the README
	// table; columnar runs on one shard and on several. ~25M messages of warm-up +
	// measurement per case, so -short (the smoke lane) skips the block;
	// run it deliberately with -bench='BenchmarkEngine/n=1000000'.
	if testing.Short() {
		return
	}
	const million = 1000000
	cases := []struct {
		model   gossip.Model
		path    string
		workers int
	}{
		{gossip.Push, "pushsum-aos", 0},
		{gossip.Push, "pushsum-columnar", 0},
		{gossip.Push, "pushsum-columnar", gossip.DefaultWorkers()},
		{gossip.PushPull, "pushsum-aos", 0},
		{gossip.PushPull, "pushsum-columnar", 0},
		{gossip.PushPull, "pushsum-columnar", gossip.DefaultWorkers()},
	}
	for _, c := range cases {
		name := fmt.Sprintf("n=%d/%s/%s/workers=%d", million, c.model, c.path, c.workers)
		b.Run(name, func(b *testing.B) {
			e := benchPushSumEngine(b, million, c.workers, c.model, c.path == "pushsum-columnar")
			stepRounds(b, e, true)
		})
	}
}

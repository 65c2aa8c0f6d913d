package main

import "time"

// sizes holds every workload size and tolerance. fullSizes is what the
// benchmark runs (and what README.md's baseline was measured at);
// tests substitute toy values. Each result file line records the sizes
// it was measured at.
//
// The tolerances were set once, at 1.5× (or more) the plateau measured
// on the seed commit — README.md records those measurements — and are
// not tuned per run.
type sizes struct {
	// Name is "full" for the sizes the goldens in testdata/ were
	// recorded at.
	Name string `json:"name"`

	// round-columnar
	ColumnarN       int     `json:"columnar_n"`
	ColumnarFailAt  int     `json:"columnar_fail_at"`
	ColumnarRounds  int     `json:"columnar_rounds"`
	Lambda          float64 `json:"lambda"`
	EpsConverge     float64 `json:"eps_converge"`
	EpsRecover      float64 `json:"eps_recover"`
	SampleHosts     int     `json:"sample_hosts"`
	SpeedupN        int     `json:"speedup_n"`
	SpeedupRounds   int     `json:"speedup_rounds"`
	ClassicSideN    int     `json:"classic_side_n"`
	ClassicSideRnds int     `json:"classic_side_rounds"`

	// round-figures
	FigN         int `json:"fig_n"`
	FigRounds    int `json:"fig_rounds"`
	FigFailAt    int `json:"fig_fail_at"`
	Fig9N        int `json:"fig9_n"`
	ExtremesN    int `json:"extremes_n"`
	Fig11Dataset int `json:"fig11_dataset"`

	// live-batch
	LiveN       int     `json:"live_n"`
	LiveGroups  int     `json:"live_groups"`
	LiveQueue   int     `json:"live_queue"`
	EpsLive     float64 `json:"eps_live"`
	LiveEpisode float64 `json:"live_episode_share"` // share of -seconds one cold start runs

	// cluster-gossip and gateway-read
	ClusterMembers int           `json:"cluster_members"`
	ClusterN       int           `json:"cluster_n"`
	ClusterPace    time.Duration `json:"cluster_pace_ns"`
	ClusterSetups  int           `json:"cluster_setups"` // bring-ups per run, the measured one included
	Ladder         []int         `json:"ladder"`
	LadderDown     int           `json:"ladder_down"` // the one rung tried when ClusterN itself fails
	FreshProbes    int           `json:"fresh_probes"`
	EpsAverage     float64       `json:"eps_average"`
	SizeTolerance  float64       `json:"size_tolerance"`
	RecoverWithin  time.Duration `json:"recover_within_ns"`
	GatewayN       int           `json:"gateway_n"`
	GatewayPace    time.Duration `json:"gateway_pace_ns"`
	GatewayNames   int           `json:"gateway_names"`
	GatewayClients int           `json:"gateway_clients"`
	OpenLoopRate   int           `json:"open_loop_rate"`

	// probes
	ProbeMsgs int `json:"probe_msgs"`
}

func fullSizes() sizes {
	return sizes{
		Name:      "full",
		ColumnarN: 100_000, ColumnarFailAt: 12, ColumnarRounds: 72,
		Lambda: 0.05, EpsConverge: 0.09, EpsRecover: 0.09, SampleHosts: 4096,
		SpeedupN: 1_000_000, SpeedupRounds: 10,
		ClassicSideN: 10_000, ClassicSideRnds: 60,

		FigN: 5_000, FigRounds: 60, FigFailAt: 20, Fig9N: 500, ExtremesN: 1_500, Fig11Dataset: 1,

		LiveN: 200_000, LiveGroups: 2, LiveQueue: 1024, EpsLive: 0.13, LiveEpisode: 0.1,

		ClusterMembers: 3, ClusterN: 384, ClusterPace: 10 * time.Millisecond, ClusterSetups: 5,
		Ladder: []int{768, 1536, 3072}, LadderDown: 192, FreshProbes: 10,
		EpsAverage: 0.10, SizeTolerance: 0.35, RecoverWithin: 5 * time.Second,
		GatewayN: 96, GatewayPace: 20 * time.Millisecond, GatewayNames: 8,
		GatewayClients: 2, OpenLoopRate: 5000,

		ProbeMsgs: 1_000_000,
	}
}

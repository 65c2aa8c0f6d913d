// Package metrics provides the evaluation plumbing: ground-truth
// tracking over the live population and engine hooks that record the
// paper's error metric — the standard deviation of host estimates from
// the correct value — into series, per round or per simulated hour.
package metrics

import (
	"math"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/groups"
	"dynagg/internal/stats"
)

// Truth computes the correct aggregate values over the currently live
// population.
type Truth struct {
	values []float64
	pop    *env.Population
}

// NewTruth tracks ground truth for the given per-host data values over
// a population.
func NewTruth(values []float64, pop *env.Population) *Truth {
	return &Truth{values: values, pop: pop}
}

// Average returns the true mean over live hosts (0 if none).
func (t *Truth) Average() float64 {
	n := t.pop.AliveCount()
	if n == 0 {
		return 0
	}
	return t.Sum() / float64(n)
}

// Sum returns the true sum over live hosts.
func (t *Truth) Sum() float64 {
	var sum float64
	for _, id := range t.pop.AliveIDs() {
		sum += t.values[id]
	}
	return sum
}

// Count returns the live host count.
func (t *Truth) Count() float64 { return float64(t.pop.AliveCount()) }

// EstimateReader reads host id's estimate off an engine, reporting
// false for a host that is dead or has none. (*gossip.Engine).EstimateOf
// reads what the protocol itself reports; a protocol's read side (e.g.
// sketchreset.Readout.EstimateOf) can read the same simulation another
// way, so one run can feed several series.
type EstimateReader func(e *gossip.Engine, id gossip.NodeID) (float64, bool)

// DeviationHook returns an AfterRound hook appending, each round, the
// RMS deviation of all live estimates, as read by estimateOf, from
// truth() to the series. The hook owns the scratch the estimates are
// gathered into, so a round allocates nothing once it has grown.
func DeviationHook(s *stats.Series, truth func() float64, estimateOf EstimateReader) gossip.Hook {
	var ests []float64
	return func(round int, e *gossip.Engine) {
		ests = ests[:0]
		for id, n := 0, e.Env().Size(); id < n; id++ {
			if v, ok := estimateOf(e, gossip.NodeID(id)); ok {
				ests = append(ests, v)
			}
		}
		s.Append(float64(round), stats.DeviationFrom(ests, truth()))
	}
}

// GroupKind selects which per-group aggregate the trace experiments
// measure against.
type GroupKind int

const (
	// GroupAverage compares each host's estimate against its group's
	// mean value (Figure 11 left column).
	GroupAverage GroupKind = iota
	// GroupSize compares against the group's live size (Figure 11
	// right column: "dynamic sum" with one identifier per host is a
	// size estimate).
	GroupSize
	// GroupSum compares against the group's value sum.
	GroupSum
)

// GroupDeviationHook returns an AfterRound hook for trace
// environments: every sampleEvery rounds it recomputes the 10-minute
// groups, derives each live host's correct group aggregate, and
// appends the RMS deviation of host estimates from their own group's
// truth, reading estimates through estimateOf. The x coordinate is
// simulated hours. If sizeSeries is non-nil the per-host mean group
// size is recorded alongside.
func GroupDeviationHook(s, sizeSeries *stats.Series, tenv *env.TraceEnv, values []float64, kind GroupKind, sampleEvery int, estimateOf EstimateReader) gossip.Hook {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return func(round int, e *gossip.Engine) {
		if round%sampleEvery != 0 {
			return
		}
		asg := tenv.Groups()
		hours := tenv.Now().Hours()

		var sumSq float64
		var n int
		for id := 0; id < tenv.Size(); id++ {
			est, ok := estimateOf(e, gossip.NodeID(id))
			if !ok || math.IsNaN(est) || math.IsInf(est, 0) {
				continue
			}
			truth := groupTruth(asg, id, values, kind)
			d := est - truth
			sumSq += d * d
			n++
		}
		if n > 0 {
			s.Append(hours, math.Sqrt(sumSq/float64(n)))
		} else {
			s.Append(hours, 0)
		}
		if sizeSeries != nil {
			sizeSeries.Append(hours, asg.MeanGroupSizePerHost())
		}
	}
}

// groupTruth computes host id's correct group aggregate.
func groupTruth(asg groups.Assignment, id int, values []float64, kind GroupKind) float64 {
	g := asg.GroupOf(id)
	switch kind {
	case GroupSize:
		return float64(asg.SizeOf(g))
	case GroupSum:
		var sum float64
		for _, m := range asg.Members(g) {
			sum += values[m]
		}
		return sum
	default: // GroupAverage
		var sum float64
		members := asg.Members(g)
		for _, m := range members {
			sum += values[m]
		}
		return sum / float64(len(members))
	}
}

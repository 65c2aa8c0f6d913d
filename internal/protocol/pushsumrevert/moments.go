package pushsumrevert

import (
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// MomentsMass is a NewMoments host's payload: its (w, v) mass and its
// share of the second value q.
type MomentsMass struct {
	Mass
	Q float64
}

// Detach implements gossip.Detacher. It is declared here because the
// one promoted from Mass would return a *Mass and drop Q.
func (m *MomentsMass) Detach() any { c := *m; return &c }

// AppendEnvelope implements wire.Payload by refusing: no envelope kind
// carries a moments mass (kind 3 is retired), and the method promoted
// from Mass would send (w, v) and drop Q, like Detach's.
func (m MomentsMass) AppendEnvelope([]byte, wire.Header) ([]byte, error) {
	return nil, fmt.Errorf("pushsumrevert: no wire encoding for payload %T", m)
}

// NewMoments returns a Push-Sum-Revert host with data value v0 that
// also gossips q under the same weight, λ, peers and message order, so
// its Estimate is the network's standard deviation (§II names it among
// the target aggregates). Full-Transfer and Adaptive are refused.
func NewMoments(id gossip.NodeID, v0 float64, cfg Config) *Node {
	return newNode(id, v0, weight(cfg), cfg, true)
}

// NewColumnarMoments is NewMoments for a columnar population; Deliver
// and AppendWire read q from the sender's outQ.
func NewColumnarMoments(vs []float64, cfg Config) *Columnar {
	return newColumnar(vs, weight(cfg), cfg, true)
}

// Moments returns a NewMoments host's running estimates of the network
// mean and variance; ok is false while the host holds no weight.
func (n *Node) Moments() (mean, variance float64, ok bool) {
	return moments(n.c.w[0], n.c.v[0], n.c.q[0])
}

// moments derives mean and variance from one host's (w, v, q), the
// variance clamped at zero: transient states can drive the raw moment
// estimate slightly negative.
func moments(w, v, q float64) (mean, variance float64, ok bool) {
	if w <= 1e-12 {
		return 0, 0, false
	}
	mean = v / w
	variance = q/w - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance, true
}

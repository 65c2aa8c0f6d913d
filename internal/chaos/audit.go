package chaos

import (
	"math"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
)

// AuditReport is the mass-conservation verdict of one run.
//
// The invariant: with fault-filtered peer picking nothing ever drops
// in flight, so after every round the total (w, v) mass over all
// hosts — dead ones included, their state is frozen, not lost — must
// equal the round-start total plus the λ-reversion each live host
// applies at emission, Σ_live λ·(m0 − m). Plain Push-Sum is the λ=0
// case: exact conservation. Every honest fault in the vocabulary
// (partition, outage, churn storm, clock skew) preserves the
// invariant; every mass adversary breaks it, which is what makes the
// audit a defense rather than a metric.
type AuditReport struct {
	// Applicable is false for protocols without mass semantics
	// (sketchreset); such runs are judged by damage metrics instead.
	Applicable bool `json:"applicable"`
	// Tolerance is the relative drift above which a round counts as a
	// violation.
	Tolerance float64 `json:"tolerance"`
	// Violations is the number of rounds that broke conservation.
	Violations int `json:"violations"`
	// FirstViolation is the earliest violating round, −1 if none.
	FirstViolation int `json:"first_violation"`
	// MaxDrift is the largest relative drift observed in any round.
	MaxDrift float64 `json:"max_drift"`
}

// auditTolerance absorbs float summation error over hundreds of
// hosts; real violations (fabricated mass) sit orders of magnitude
// above it.
const auditTolerance = 1e-6

// massAudit implements the conservation audit as a BeforeRound /
// AfterRound hook pair. The before hook (registered after the fault
// hooks, so the round's fail/revive script has already run) computes
// the expected post-round totals; the after hook compares.
type massAudit struct {
	lambda  float64
	w0, mv0 []float64 // per-host reversion targets
	// massOf reads host id's true mass, from the population as built
	// under any Byzantine wrappers, so the audit sees real state.
	massOf func(id gossip.NodeID) pushsumrevert.Mass
	expW   float64
	expV   float64
	report AuditReport
}

func newMassAudit(lambda float64, w0, mv0 []float64, massOf func(gossip.NodeID) pushsumrevert.Mass) *massAudit {
	return &massAudit{
		lambda: lambda,
		w0:     w0,
		mv0:    mv0,
		massOf: massOf,
		report: AuditReport{Applicable: true, Tolerance: auditTolerance, FirstViolation: -1},
	}
}

// before computes the expected post-round mass totals: the current
// totals plus each live host's reversion delta.
func (a *massAudit) before(r int, e *gossip.Engine) {
	sumW, sumV := a.totals(e)
	if a.lambda != 0 {
		env := e.Env()
		n := env.Size()
		for id := 0; id < n; id++ {
			nid := gossip.NodeID(id)
			if !env.Alive(nid, r) {
				continue
			}
			m := a.massOf(nid)
			sumW += a.lambda * (a.w0[id] - m.W)
			sumV += a.lambda * (a.mv0[id] - m.V)
		}
	}
	a.expW, a.expV = sumW, sumV
}

// after compares the actual post-round totals to the expectation.
func (a *massAudit) after(r int, e *gossip.Engine) {
	totW, totV := a.totals(e)
	drift := math.Max(relDrift(totW, a.expW), relDrift(totV, a.expV))
	if drift > a.report.MaxDrift {
		a.report.MaxDrift = drift
	}
	if drift > a.report.Tolerance {
		a.report.Violations++
		if a.report.FirstViolation < 0 {
			a.report.FirstViolation = r
		}
	}
}

func (a *massAudit) totals(e *gossip.Engine) (sumW, sumV float64) {
	n := e.Env().Size()
	for id := 0; id < n; id++ {
		m := a.massOf(gossip.NodeID(id))
		sumW += m.W
		sumV += m.V
	}
	return sumW, sumV
}

func relDrift(actual, expected float64) float64 {
	return math.Abs(actual-expected) / math.Max(1, math.Abs(expected))
}

package main

import (
	"math"
	"testing"
)

// TestJudge pins supervise's reading of a member's record: which rows
// it judges for each protocol, the worst rel.err it finds there, and
// when that fails the member.
func TestJudge(t *testing.T) {
	agg := func(name string, relErrPct float64) aggregateRecord {
		return aggregateRecord{Name: name, RelErrPct: relErrPct, Hosts: 32, Of: 32}
	}
	for _, tc := range []struct {
		name   string
		record *liveRecord
		row    string
		failed bool
	}{
		{"row present", &liveRecord{Protocol: "revert", Mean: 50.1234, Truth: 49, RelErrPct: 2.29},
			"converged: rel.err 2.29%", false},
		{"no record", nil,
			"FAILED: printed no record", true},
		{"row over the bound", &liveRecord{Protocol: "pushsum", Mean: 23.03, Truth: 49, RelErrPct: 53},
			"FAILED: rel.err 53.00% above 10%", true},
		{"multi judges its aggregate rows, not its size row", &liveRecord{Protocol: "multi", RelErrPct: 40.73,
			Aggregates: []aggregateRecord{agg("load", 0.44), agg("temp", 2.41)}},
			"converged: rel.err 2.41% (its size row is a sketch count, not judged)", false},
		{"multi aggregate over the bound", &liveRecord{Protocol: "multi",
			Aggregates: []aggregateRecord{agg("load", 0.44), agg("temp", 50)}},
			"FAILED: rel.err 50.00% above 10%", true},
		{"a NaN row is the worst", &liveRecord{Protocol: "multi",
			Aggregates: []aggregateRecord{agg("a", math.NaN()), agg("b", 0)}},
			"FAILED: rel.err NaN% above 10%", true},
		{"sketchreset is not judged", &liveRecord{Protocol: "sketchreset", Mean: 136.2, Truth: 96, RelErrPct: 41.88},
			"not judged: its size estimate is a sketch count, biased high at small n", false},
	} {
		if row, failed := judge(tc.record); row != tc.row || failed != tc.failed {
			t.Errorf("%s: judge = (%q, %v), want (%q, %v)", tc.name, row, failed, tc.row, tc.failed)
		}
	}
}

// TestAuditMass pins supervise's mass audit over its members' records:
// the members' mass censuses summed, judged by the drift of the
// cluster's mass ratio, and not applicable when no record carries one.
func TestAuditMass(t *testing.T) {
	member := func(relErrPct, w0, v0, w1, v1 float64) *liveRecord {
		return &liveRecord{Protocol: "revert", Mean: 47, Truth: 47.5, RelErrPct: relErrPct,
			Mass: &massRecord{EndowmentW: w0, EndowmentV: v0, CensusW: w1, CensusV: v1}}
	}
	clean := []*liveRecord{
		member(1.17, 32, 496, 32.4, 1539),
		member(0.13, 32, 1520, 31.8, 1510.5),
		member(1.69, 32, 2544, 32.1, 1530),
	}
	// One member's final ΣV scaled ×1.5: its estimates, and so every
	// rel.err, are untouched, and only the audit can see it.
	forged := append([]*liveRecord{}, clean...)
	forged[2] = member(1.69, 32, 2544, 32.1, 1.5*1530)
	for i, r := range forged {
		if row, failed := judge(r); failed {
			t.Fatalf("forged member %d fails the judge (%s); only the audit may flag it", i, row)
		}
	}
	for _, tc := range []struct {
		name    string
		records []*liveRecord
		row     string
		flagged bool
	}{
		{"clean mass rows", clean, "ratio 47.5000 -> 47.5545, drift 0.00115 (tol 0.1)", false},
		{"one member's final V x1.5", forged, "ratio 47.5000 -> 55.4984, drift 0.168 (tol 0.1) FLAGGED", true},
		{"no mass rows", []*liveRecord{{Protocol: "multi", Aggregates: []aggregateRecord{{Name: "load", RelErrPct: 0.44}}}, nil},
			"not applicable", false},
	} {
		if row, flagged := auditMass(tc.records); row != tc.row || flagged != tc.flagged {
			t.Errorf("%s: auditMass = (%q, %v), want (%q, %v)", tc.name, row, flagged, tc.row, tc.flagged)
		}
	}
}

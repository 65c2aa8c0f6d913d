package main

import (
	"fmt"
	"testing"
)

// TestJudge pins supervise's reading of a member's `live` output: which
// rows it judges for each protocol, the worst rel.err it finds there,
// and when that fails the member.
func TestJudge(t *testing.T) {
	const (
		config = "live config: protocol=revert backend=agents transport=tcp n=64 ticks=300 groups=4\n"
		tail   = "sent 9600  dropped 0  elapsed 6.01s  peak_rss_bytes 12345678\n"
	)
	for _, tc := range []struct {
		name, protocol, report string
		row                    string
		failed                 bool
	}{
		{"row present", "revert",
			config + "mean estimate 50.1234  truth 49.0000  rel.err 2.29%\n" + tail,
			"converged: rel.err 2.29%", false},
		{"row missing", "pushsum", config,
			"FAILED: printed no rel.err row", true},
		{"row over the bound", "pushsum",
			config + "mean estimate 23.0300  truth 49.0000  rel.err 53.00%\n" + tail,
			"FAILED: rel.err 53.00% above 10%", true},
		{"multi judges its aggregate rows, not its size row", "multi",
			config + "mean estimate 135.1000  truth 96.0000  rel.err 40.73%\n" +
				"aggregate load         mean 4.4800  truth 4.5000  rel.err 0.44%  (32/32 hosts)\n" +
				"aggregate temp         mean 21.4700  truth 22.0000  rel.err 2.41%  (32/32 hosts)\n" + tail,
			"converged: rel.err 2.41% (its size row is a sketch count, not judged)", false},
		{"multi aggregate over the bound", "multi",
			"aggregate load         mean 4.4800  truth 4.5000  rel.err 0.44%  (32/32 hosts)\n" +
				"aggregate temp         mean 11.0000  truth 22.0000  rel.err 50.00%  (32/32 hosts)\n",
			"FAILED: rel.err 50.00% above 10%", true},
		{"a NaN row is the worst", "multi",
			"aggregate a mean NaN  truth 1.0000  rel.err NaN%  (0/4 hosts)\n" +
				"aggregate b mean 1.0000  truth 1.0000  rel.err 0.00%  (4/4 hosts)\n",
			"FAILED: rel.err NaN% above 10%", true},
		{"sketchreset is not judged", "sketchreset",
			config + "mean estimate 136.2000  truth 96.0000  rel.err 41.88%\n" + tail,
			"not judged: its size estimate is a sketch count, biased high at small n", false},
	} {
		if row, failed := judge(tc.protocol, tc.report); row != tc.row || failed != tc.failed {
			t.Errorf("%s: judge = (%q, %v), want (%q, %v)", tc.name, row, failed, tc.row, tc.failed)
		}
	}
}

// TestAuditMass pins supervise's mass audit over its members' `live`
// reports: the members' mass rows summed, judged by the drift of the
// cluster's mass ratio, and not applicable when no member printed one.
func TestAuditMass(t *testing.T) {
	member := func(relErr, w0, v0, w1, v1 float64) string {
		return fmt.Sprintf("mean estimate 47.0000  truth 47.5000  rel.err %.2f%%\n"+
			"sent 9600  dropped 0  elapsed 6.01s  peak_rss_bytes 12345678\n"+
			"mass endowment w %.4f v %.4f  census w %.4f v %.4f\n", relErr, w0, v0, w1, v1)
	}
	clean := []string{
		member(1.17, 32, 496, 32.4, 1539),
		member(0.13, 32, 1520, 31.8, 1510.5),
		member(1.69, 32, 2544, 32.1, 1530),
	}
	// One member's final ΣV scaled ×1.5: its estimates, and so every
	// rel.err row, are untouched, and only the audit can see it.
	forged := append([]string{}, clean...)
	forged[2] = member(1.69, 32, 2544, 32.1, 1.5*1530)
	for i, report := range forged {
		if row, failed := judge("revert", report); failed {
			t.Fatalf("forged member %d fails the judge (%s); only the audit may flag it", i, row)
		}
	}
	for _, tc := range []struct {
		name    string
		reports []string
		row     string
		flagged bool
	}{
		{"clean mass rows", clean, "ratio 47.5000 -> 47.5545, drift 0.00115 (tol 0.1)", false},
		{"one member's final V x1.5", forged, "ratio 47.5000 -> 55.4984, drift 0.168 (tol 0.1) FLAGGED", true},
		{"no mass rows", []string{"aggregate load mean 4.4800  truth 4.5000  rel.err 0.44%  (32/32 hosts)\n"},
			"not applicable", false},
	} {
		if row, flagged := auditMass(tc.reports); row != tc.row || flagged != tc.flagged {
			t.Errorf("%s: auditMass = (%q, %v), want (%q, %v)", tc.name, row, flagged, tc.row, tc.flagged)
		}
	}
}

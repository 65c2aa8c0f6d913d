package main

import "testing"

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

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
)

// TestLiveRecordTable pins the table a live record renders to, row by
// row, for fixed values: a cluster member over tcp with injected loss
// (bootstrap, membership, link-kill and mass rows), and a multi run
// under a WAN preset (aggregate rows). The table is the report people
// and the documented transcripts read, so it must not move.
func TestLiveRecordTable(t *testing.T) {
	kills := int64(12)
	for _, tc := range []struct {
		name string
		rec  liveRecord
		want string
	}{
		{"cluster member", liveRecord{
			Protocol: "revert", Backend: "agents", Transport: "tcp", N: 96, Ticks: 60, Groups: 4,
			Loss: 0.05, Pace: 4 * time.Millisecond, Seed: 1, RcvBuf: 4 << 20,
			Span: &live.Span{Lo: 0, Hi: 32}, Listen: "127.0.0.1:19321", Seeds: "127.0.0.1:19321",
			Membership: []transport.Group{
				{Lo: 0, Hi: 32, Addr: "127.0.0.1:19321"},
				{Lo: 32, Hi: 64, Addr: "127.0.0.1:39733"},
				{Lo: 64, Hi: 96, Addr: "127.0.0.1:34781"},
			},
			Mean: 47.5, Truth: 47.5, RelErrPct: 0,
			Sent: 3833, Dropped: 7, Elapsed: 247 * time.Millisecond, PeakRSS: 8982528,
			LinkKills: &kills,
			Mass:      &massRecord{EndowmentW: 32, EndowmentV: 496, CensusW: 29.2602, CensusV: 1389.8608},
		}, `live config: protocol=revert backend=agents transport=tcp n=96 ticks=60 groups=4
             loss=0.0500 (tcp: link-kill) pace=4ms workers=0 seed=1 rcvbuf=4194304
bootstrap:   span [0,32) listening on 127.0.0.1:19321  seeds 127.0.0.1:19321
membership: [0,32)@127.0.0.1:19321  [32,64)@127.0.0.1:39733  [64,96)@127.0.0.1:34781
mean estimate 47.5000  truth 47.5000  rel.err 0.00%
sent 3833  dropped 7  elapsed 247ms  peak_rss_bytes 8982528
link kills 12 (loss over tcp severs connections)
mass endowment w 32.0000 v 496.0000  census w 29.2602 v 1389.8608
`},
		{"multi under a WAN preset", liveRecord{
			Protocol: "multi", Backend: "agents", Transport: "chan+3g", N: 64, Ticks: 20, Groups: 4,
			Loss: 0.02, Pace: 4 * time.Millisecond, Workers: -1, Seed: 7, RcvBuf: 4 << 20,
			Mean: 123.5228, Truth: 64, RelErrPct: 93,
			Aggregates: []aggregateRecord{
				{Name: "load", Mean: 3.4955, Truth: 3.5, RelErrPct: 0.13, Hosts: 64, Of: 64},
				{Name: "temp", Mean: 3.5265, Truth: 3.5, RelErrPct: 0.76, Hosts: 63, Of: 64},
			},
			Sent: 2560, Elapsed: 1500 * time.Millisecond, PeakRSS: 11186176,
		}, `live config: protocol=multi backend=agents transport=chan+3g n=64 ticks=20 groups=4
             loss=0.0200 pace=4ms workers=-1 seed=7 rcvbuf=4194304
mean estimate 123.5228  truth 64.0000  rel.err 93.00%
aggregate load         mean 3.4955  truth 3.5000  rel.err 0.13%  (64/64 hosts)
aggregate temp         mean 3.5265  truth 3.5000  rel.err 0.76%  (63/64 hosts)
sent 2560  dropped 0  elapsed 1.5s  peak_rss_bytes 11186176
`},
	} {
		var b bytes.Buffer
		tc.rec.writeHeader(&b)
		tc.rec.writeResult(&b)
		if got := b.String(); got != tc.want {
			t.Errorf("%s: table\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// TestRunLiveFormatJSON pins -format json: a run over chan prints
// exactly one line, the record supervise decodes, carrying the run's
// traffic and truth; the table decodes to no record; and an unknown
// format is refused by name.
func TestRunLiveFormatJSON(t *testing.T) {
	dir := t.TempDir()
	out := func(format string) []byte {
		path := filepath.Join(dir, format+".txt")
		if err := run([]string{"live", "-n", "64", "-ticks", "20", "-format", format, "-o", path}); err != nil {
			t.Fatalf("live -format %s: %v", format, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := out("json")
	if bytes.Count(data, []byte("\n")) != 1 || !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("live -format json printed %q, want one line", data)
	}
	r := decodeRecord(data)
	if r == nil {
		t.Fatalf("live -format json printed %q, which decodes to no record", data)
	}
	// Hosts hold i mod 100, so the mean of 0..63.
	if r.Protocol != "pushsum" || r.N != 64 || r.Sent <= 0 || r.Truth != 31.5 || r.Mass == nil {
		t.Errorf("record %+v: want protocol pushsum, n 64, sent > 0, truth 31.5 and a mass census", r)
	}
	if r := decodeRecord(out("table")); r != nil {
		t.Errorf("the table decodes to record %+v, want none", r)
	}

	err := run([]string{"live", "-n", "16", "-ticks", "1", "-format", "yaml"})
	if err == nil || !strings.Contains(err.Error(), `"yaml"`) {
		t.Errorf("live -format yaml: err = %v, want a refusal naming \"yaml\"", err)
	}
}

package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// runJSON runs a scenario and returns its report JSON, failing the
// test on any error.
func runJSON(t *testing.T, s Scenario, seed uint64, opts RunOpts) []byte {
	t.Helper()
	rep, err := RunWith(s, seed, opts)
	if err != nil {
		t.Fatalf("RunWith(%s): %v", s.Name, err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("Report.JSON(%s): %v", s.Name, err)
	}
	return data
}

// TestScenarioDeterminism pins the contract: same Scenario + seed ⇒
// byte-identical Report, on both backends and independent of the
// round executor's worker count. It also pins the reports themselves:
// the SHA-256 of every catalog report at seed 42 on the classic
// backend, and of every adversary-free scenario's report on the
// columnar one (adversaries need per-host agents), against digests
// recorded below. A change that should not move results must leave
// them all unchanged.
func TestScenarioDeterminism(t *testing.T) {
	for _, name := range Names() {
		s, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			a := runJSON(t, s, 42, RunOpts{})
			b := runJSON(t, s, 42, RunOpts{})
			if !bytes.Equal(a, b) {
				t.Fatalf("classic report not deterministic:\n%s\nvs\n%s", a, b)
			}
			c := runJSON(t, s, 42, RunOpts{Workers: 3})
			if !bytes.Equal(a, c) {
				t.Fatalf("workers=3 report differs from sequential:\n%s\nvs\n%s", a, c)
			}
			checkReportDigest(t, "classic", name, a, classicReportDigests)
		})
	}
	t.Run("columnar", func(t *testing.T) {
		for _, name := range Names() {
			s, _ := ByName(name)
			if len(s.Adversaries) > 0 {
				continue
			}
			a := runJSON(t, s, 42, RunOpts{Columnar: true})
			if name == "partition-heal" {
				b := runJSON(t, s, 42, RunOpts{Columnar: true})
				if !bytes.Equal(a, b) {
					t.Fatalf("columnar report not deterministic:\n%s\nvs\n%s", a, b)
				}
			}
			checkReportDigest(t, "columnar", name, a, columnarReportDigests)
		}
	})
}

// checkReportDigest compares a report's SHA-256 with its recorded
// value in want.
func checkReportDigest(t *testing.T, backend, name string, report []byte, want map[string]string) {
	t.Helper()
	sum := sha256.Sum256(report)
	if got := hex.EncodeToString(sum[:]); got != want[name] {
		t.Errorf("%s report of %s at seed 42: sha256 %s, recorded %s", backend, name, got, want[name])
	}
}

// classicReportDigests and columnarReportDigests are the recorded
// SHA-256s of Report.JSON at seed 42.
var classicReportDigests = map[string]string{
	"byzantine-lying-1": "99ab59c08bca136ae03650e3e644208c829b4eb4b320857ca0d631be6ff4ef9e",
	"byzantine-lying-5": "058379429f0406d64726fc5e1560eca5cc2d94402c924b9c2f0cea4ca10f2451",
	"byzantine-replay":  "b10431264b3241c4c9a1680765e3fc1ca469fd70a92ca3ccea825976a80fbda1",
	"byzantine-sketch":  "a0474fed3554dc00198a620e75c25a2a03f8f08d1b818c1e1003fbe52ceec4be",
	"churn-storm":       "61384cdc01e37a922257f0053112f2eff387766f36c06193cee4975b98099bab",
	"clock-skew":        "56c5fe87441c2a3160e3b7e7e5dca34f39a418c2c0ea90ab41df7b0a3f937a0a",
	"crash-restart":     "8d590ead30e71d51909dd6b57cd7407c869233fe4310b9402f9dc829aa17339f",
	"partition-heal":    "e9e94f01b3aa6df6555bf88b8b4136f2ef016439c82fc2747143678538513d9a",
	"regional-outage":   "fa11bc3d7bfce409f77ca1262e74e1330ad02beb1a3484c5dbfbf3a4c276f82a",
	"sketch-partition":  "d000e41ba2df8bbcccd5f8f51335b6f1f50ffb08258974aca8c2059d6f062c49",
}

var columnarReportDigests = map[string]string{
	"churn-storm":      "5d0ab903f9661fc98156b7f27595c00666967e82b2ebdecac84e75c4ffc3e4b5",
	"clock-skew":       "510a9c2c12b76ccb12e428ee6196e28b12e9175c9f37190de58f3da9d151d1eb",
	"crash-restart":    "8eb8c74f7a291cfd06eccc2c8813d364c7c6c22b1a64f5732d17b43ca50c0f06",
	"partition-heal":   "f9dba45e5bb1b5268bce2251632ec4ef37e2349df89458afc789e157bafc198f",
	"regional-outage":  "0544705968c166c251896c7b7c26bd9dd08b0d38617b070d43f69be52615e0da",
	"sketch-partition": "f2e261acff34350a8d13ac0656b9d052b245860fd64ed0eaec8eca56d01bb6e4",
}

// TestScenarioHonestAuditClean asserts the defense's specificity:
// every honest fault in the catalog — partitions, outages, churn
// storms, clock skew — preserves mass conservation exactly, so the
// audit must report zero violations.
func TestScenarioHonestAuditClean(t *testing.T) {
	for _, name := range Names() {
		s, _ := ByName(name)
		if len(s.Adversaries) > 0 {
			continue
		}
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/columnar=%v", name, columnar), func(t *testing.T) {
				rep, err := RunWith(s, 7, RunOpts{Columnar: columnar})
				if err != nil {
					t.Fatalf("RunWith: %v", err)
				}
				if s.Protocol == ProtoSketchReset {
					if rep.Audit.Applicable {
						t.Fatalf("mass audit claims to apply to %s", s.Protocol)
					}
					return
				}
				if !rep.Audit.Applicable {
					t.Fatalf("mass audit should apply to %s", s.Protocol)
				}
				if rep.Audit.Violations != 0 {
					t.Fatalf("honest scenario flagged: %d violations (first at round %d, max drift %g)",
						rep.Audit.Violations, rep.Audit.FirstViolation, rep.Audit.MaxDrift)
				}
			})
		}
	}
}

// TestScenarioByzantineFlagged asserts the defense's sensitivity:
// every seeded Byzantine scenario on a mass protocol must trip the
// conservation audit, no earlier than the adversary activates; the
// sketch adversary (no mass to audit) must show up as estimator
// damage instead.
func TestScenarioByzantineFlagged(t *testing.T) {
	for _, name := range Names() {
		s, _ := ByName(name)
		if len(s.Adversaries) == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rep, err := Run(s, 7)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Byzantine == 0 {
				t.Fatalf("no hosts corrupted")
			}
			if s.Protocol == ProtoSketchReset {
				if rep.Audit.Applicable {
					t.Fatalf("mass audit claims to apply to %s", s.Protocol)
				}
				if rep.Damage.MaxRelErr < 5 {
					t.Fatalf("sketch-bit inflation caused no visible damage: max rel err %g", rep.Damage.MaxRelErr)
				}
				return
			}
			if rep.Audit.Violations == 0 {
				t.Fatalf("Byzantine run not flagged (max drift %g)", rep.Audit.MaxDrift)
			}
			start := s.Adversaries[0].Start
			if rep.Audit.FirstViolation < start {
				t.Fatalf("flagged at round %d, before the adversary activates at %d",
					rep.Audit.FirstViolation, start)
			}
		})
	}
}

// TestPartitionHealConvergence is the scenario-matrix table test:
// every protocol family resumes convergence after a healed 2-way
// partition, with byte-exact classic/columnar parity on the error
// trajectory.
func TestPartitionHealConvergence(t *testing.T) {
	const healEnd = 40
	// Tolerances sit below each protocol's mid-partition error and
	// above its intrinsic noise floor, so RecoveryRound can only land
	// after the heal: Push-Sum converges to ~1e-9 (two side-means
	// differ by ~0.2%), the reverting protocol carries a λ-dependent
	// steady-state bias (λ=0.02 floors near 2.6%), and the sketch's
	// multiplicative error dominates everything else.
	cases := []struct {
		protocol string
		lambda   float64
		tol      float64
	}{
		{ProtoPushSum, 0, 0.001},
		{ProtoRevert, 0.02, 0.03},
		{ProtoSketchReset, 0, 0.75},
	}
	for _, tc := range cases {
		t.Run(tc.protocol, func(t *testing.T) {
			s := Scenario{
				Name: "partition-heal-" + tc.protocol, N: 256, Rounds: 80,
				Protocol: tc.protocol, Lambda: tc.lambda,
				Faults:      []Fault{{Kind: FaultPartition, Start: 10, End: healEnd, Parts: 2}},
				RecoveryTol: tc.tol,
			}
			classic, err := Run(s, 11)
			if err != nil {
				t.Fatalf("classic run: %v", err)
			}
			columnar, err := RunWith(s, 11, RunOpts{Columnar: true})
			if err != nil {
				t.Fatalf("columnar run: %v", err)
			}

			if classic.Damage.RecoveryRound < 0 {
				t.Fatalf("%s never recovered after heal: trajectory tail %v",
					tc.protocol, classic.Trajectory[len(classic.Trajectory)-5:])
			}
			if final := classic.Damage.FinalRelErr; final > tc.tol {
				t.Fatalf("%s final error %g above tolerance %g", tc.protocol, final, tc.tol)
			}
			// The partition must be visible (denied contacts), and for
			// the mass protocols it must push the error above the
			// tolerance while open — which forces the recovery round
			// past the heal, i.e. convergence genuinely RESUMED rather
			// than never having been disturbed.
			if len(classic.Lost) == 0 || classic.Lost[0].Count == 0 {
				t.Fatalf("partition denied no contacts: %+v", classic.Lost)
			}
			if tc.protocol != ProtoSketchReset {
				if during := classic.Trajectory[healEnd-1]; during <= tc.tol {
					t.Fatalf("partition left error %g within tolerance %g — no damage to recover from", during, tc.tol)
				}
				if classic.Damage.RecoveryRound < healEnd {
					t.Fatalf("recovery round %d precedes the heal at %d", classic.Damage.RecoveryRound, healEnd)
				}
			}

			if len(classic.Trajectory) != len(columnar.Trajectory) {
				t.Fatalf("trajectory lengths differ: %d vs %d", len(classic.Trajectory), len(columnar.Trajectory))
			}
			for r := range classic.Trajectory {
				if classic.Trajectory[r] != columnar.Trajectory[r] {
					t.Fatalf("classic/columnar parity broken at round %d: %g vs %g",
						r, classic.Trajectory[r], columnar.Trajectory[r])
				}
			}
		})
	}
}

// TestRunRejects pins the runner's refusal cases: crashrestart
// without a region or without mass semantics, and adversaries on the
// columnar backend.
func TestRunRejects(t *testing.T) {
	s := Scenario{
		Name: "crash-noregion", N: 16, Rounds: 4, Protocol: ProtoPushSum,
		Faults: []Fault{{Kind: FaultCrashRestart, Start: 1, End: 2}},
	}
	if _, err := Run(s, 1); err == nil {
		t.Fatalf("crashrestart without a [Lo,Hi) region accepted")
	}
	s = Scenario{
		Name: "crash-sketch", N: 16, Rounds: 4, Protocol: ProtoSketchReset,
		Faults: []Fault{{Kind: FaultCrashRestart, Start: 1, End: 2, Lo: 8, Hi: 16}},
	}
	if _, err := Run(s, 1); err == nil {
		t.Fatalf("crashrestart accepted without mass semantics to reset")
	}
	s = Scenario{
		Name: "byz-columnar", N: 16, Rounds: 4, Protocol: ProtoPushSum,
		Adversaries: []Adversary{{Kind: AdvLyingMass, Frac: 0.1, Value: 10}},
	}
	if _, err := RunWith(s, 1, RunOpts{Columnar: true}); err == nil {
		t.Fatalf("adversaries accepted on the columnar backend")
	}
}

// TestCrashRestartHeals pins the crashrestart fault on the round
// engine: the span crashes at Start (silence), restarts at End with
// amnesia (reset endowment), the estimator damage peaks at-or-after
// the restart injects the fresh mass, and gossip reabsorbs it —
// recovery lands after the restart round with the mass audit clean on
// both backends, byte-for-byte identical.
func TestCrashRestartHeals(t *testing.T) {
	s, ok := ByName("crash-restart")
	if !ok {
		t.Fatal("crash-restart missing from the catalog")
	}
	rep, err := Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	columnar, err := RunWith(s, 42, RunOpts{Columnar: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trajectory) != len(columnar.Trajectory) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(rep.Trajectory), len(columnar.Trajectory))
	}
	for r := range rep.Trajectory {
		if rep.Trajectory[r] != columnar.Trajectory[r] {
			t.Fatalf("classic/columnar parity broken at round %d: %g vs %g",
				r, rep.Trajectory[r], columnar.Trajectory[r])
		}
	}
	crash := s.Faults[0]
	if rep.Audit.Violations != 0 {
		t.Fatalf("honest crashrestart flagged: %d violations, first at %d (max drift %g)",
			rep.Audit.Violations, rep.Audit.FirstViolation, rep.Audit.MaxDrift)
	}
	if rep.Damage.MaxRelErr <= rep.Damage.RecoveryTol {
		t.Fatalf("fault never bit: max rel err %g within tol %g",
			rep.Damage.MaxRelErr, rep.Damage.RecoveryTol)
	}
	if rep.Damage.RecoveryRound < crash.End {
		t.Fatalf("recovery round %d precedes the restart at %d — the amnesia cost nothing",
			rep.Damage.RecoveryRound, crash.End)
	}
	if rep.Damage.RecoveryRound < 0 {
		t.Fatalf("population never recovered: %+v", rep.Damage)
	}
}

package gossip_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// engineGoldens holds, per protocol case and gossip model of
// columnarCases, the SHA-256 of the run's fingerprint (estimate bits of
// every host in id order, then Messages, then Contacts, little-endian)
// for n=331 hosts, 14 rounds, seed 9 under columnarEngine's failure
// wave and churn. Recorded on the commit before the executors were
// merged into one; the parity tests compare run against run inside one
// binary, so without these both sides could drift together.
var engineGoldens = map[string]string{
	"epoch/push":                       "45d5c3960524683068ea287ac0b9709621322fe0139393cbbb34f4d7c391d588",
	"extremes/push":                    "9e270efbe7c1f50d70bd8508f0ae3e5faa8c7cc92077ee52d90215124a90ad25",
	"extremes/push-pull":               "3882de8b9be56239369d735644219f1d9f21b07c93286b1f05266e6483d88aa3",
	"moments-push/push":                "69b9c8e373289c5982099dfb7e3d8fe3d1d7f686e67c86fc5aa043945ac4a001",
	"moments-pushpull/push-pull":       "ffe3f7420f35112d0157d01af51007d07af37dfac67db02a01f77ce66ca82cb7",
	"multi-push/push":                  "e69d5643db2721ce4d2cc2e8e79b903d66d898e3d983f15a8b6ec26d5a42cd8c",
	"multi-pushpull/push-pull":         "fb51f84d72ba0750391a1e8c15d8386cbdcd20fec6998ac36d32d2afbfb0f8e5",
	"pushsum/push":                     "f36dfa4fd1ed543e4d4ab6cbc9ece83875aae048426a25346158d1b37f5001be",
	"pushsum/push-pull":                "eccf12755d05462b5c07a79f6d7a5e15bc19eb0539a47180240fb26ab1a26dad",
	"pushsumrevert-adaptive/push":      "f76f48e4fddc89dae1b59deebaf88536f7cb1fa85a433c0ec16c607a4b9670ae",
	"pushsumrevert-basic/push":         "5b45e5a11e97c941be3d8edc8ffcef6e64947e671a44c0662173158f25328a9b",
	"pushsumrevert-fulltransfer/push":  "2d45acae0a8c66ffd08d4a26d630da51ad4d95a69f1c031e1a7131fdf52fdc55",
	"pushsumrevert-pushpull/push-pull": "a3fc894f962eb21f28eb8fbcefe1200b8ca01affa489b028c2fbd717d56dcf25",
	"sketchcount/push":                 "0744c5d82ee78c95ee6355cc459abe93d649861162dd0d83d22ac5d160a93f67",
	"sketchcount/push-pull":            "82c51e7d657d9c2402f6d6268ca012417538b1b4f27ed8ded5aeffee28392fdb",
	"sketchreset/push":                 "9e5318e390f179dafdc07d006bd7cbfa24aba1d3d9d5328b6f0c3baa74a0da24",
	"sketchreset/push-pull":            "fb51f84d72ba0750391a1e8c15d8386cbdcd20fec6998ac36d32d2afbfb0f8e5",
}

func (fp fingerprint) digest() string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, fp.estimates)
	binary.Write(h, binary.LittleEndian, []int64{fp.messages, fp.contacts})
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineFingerprintsGolden pins every protocol × model × backend ×
// worker count to a digest committed in this file: all six engines of
// one protocol and model must reproduce the same recorded bytes (the
// three classic ones for a protocol with no columnar form).
func TestEngineFingerprintsGolden(t *testing.T) {
	const (
		n      = 331
		rounds = 14
	)
	seen := 0
	for name, c := range columnarCases(t) {
		for _, model := range c.models {
			key := fmt.Sprintf("%s/%s", name, model)
			seen++
			t.Run(key, func(t *testing.T) {
				want := engineGoldens[key]
				for _, columnar := range []bool{false, true} {
					if columnar && c.columnar == nil {
						continue
					}
					for _, workers := range []int{0, 1, 4} {
						got := columnarFingerprint(t, columnarEngine(t, c, model, n, rounds, workers, columnar), n, rounds).digest()
						if got != want {
							t.Errorf("columnar=%v workers=%d: digest %s, golden %q", columnar, workers, got, want)
						}
					}
				}
			})
		}
	}
	if seen != len(engineGoldens) {
		t.Errorf("%d protocol/model cases, %d goldens recorded", seen, len(engineGoldens))
	}
}

package gateway

import "hash/fnv"

// DemoValue is the deterministic per-host value the demo deployments
// (the dynaggsim gateway/live CLI modes and the gateway tests) register
// for an aggregate: a stable function of the aggregate name and host
// id, so every process of a deployment agrees on the ground truth
// without coordination, and tests can compute the expected population
// mean exactly.
//
// Values are small integers in [0, 8): host id mixed with the name's
// FNV hash, modulo 8.
func DemoValue(name string, id int) float64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return float64((uint32(id) ^ h.Sum32()) % 8)
}

// DemoMean is the exact population mean of DemoValue over hosts
// [0, n) — the ground truth demo deployments converge toward.
func DemoMean(name string, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += DemoValue(name, i)
	}
	return s / float64(n)
}

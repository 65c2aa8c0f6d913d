//go:build !race

package gossip_test

const raceEnabled = false

//go:build race

package gossip_test

// raceEnabled lets the first-round allocation pin count the column
// temporary the race detector keeps on top of the k > 1 route's
// cross-shard slots.
const raceEnabled = true

//go:build !race

package txn

const raceEnabled = false

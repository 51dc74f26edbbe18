//go:build race

package txn

// raceEnabled reports a race-detector build. The detector adds
// allocations of its own (sync.Pool drops a share of what is put back),
// so exact allocation budgets skip under it.
const raceEnabled = true

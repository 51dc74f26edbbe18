package clock

import "time"

// processStart anchors Mono. It carries a monotonic reading, so
// time.Since on it takes one monotonic read and no wall-clock one.
var processStart = time.Now()

// Mono is the process's one monotonic clock: the time since process
// start. Timers and deadlines on the op path subtract two readings of
// it instead of paying time.Now's wall reading at every boundary.
func Mono() time.Duration { return time.Since(processStart) }

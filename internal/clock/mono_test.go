package clock

import (
	"testing"
	"time"
)

func TestMonoAdvances(t *testing.T) {
	a := Mono()
	time.Sleep(2 * time.Millisecond)
	if b := Mono(); b-a < 2*time.Millisecond {
		t.Fatalf("Mono went %v -> %v across a 2ms sleep", a, b)
	}
}

var (
	sinkDur  time.Duration
	sinkTime time.Time
)

// BenchmarkMono against what it replaces on the op path: time.Now takes
// a wall and a monotonic reading, Mono the monotonic one alone.
func BenchmarkMono(b *testing.B) {
	b.Run("Mono", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDur = Mono()
		}
	})
	b.Run("time.Now", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkTime = time.Now()
		}
	})
}

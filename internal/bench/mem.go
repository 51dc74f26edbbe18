package bench

import "runtime"

// Heap accounting for the namespace-scale sweep. Throughput and latency
// say nothing about whether a 10M-entry namespace fits in a metadata
// node's RAM; the sweep reports resident bytes per entry alongside
// them. Samples force a collection first so the figures count reachable
// memory, not garbage awaiting the next GC cycle.

// HeapSample is a point-in-time snapshot of the live heap.
type HeapSample struct {
	HeapAlloc   uint64 // bytes of live heap objects
	HeapInuse   uint64 // bytes of in-use spans: objects plus fragmentation
	HeapObjects uint64 // number of live objects
}

// Heap forces a garbage collection and snapshots the live heap.
func Heap() HeapSample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HeapSample{
		HeapAlloc:   ms.HeapAlloc,
		HeapInuse:   ms.HeapInuse,
		HeapObjects: ms.HeapObjects,
	}
}

// Sub returns the component-wise growth a-b, clamped at zero (a
// collection between the two samples can shrink any component).
func (a HeapSample) Sub(b HeapSample) HeapSample {
	sub := func(x, y uint64) uint64 {
		if x < y {
			return 0
		}
		return x - y
	}
	return HeapSample{
		HeapAlloc:   sub(a.HeapAlloc, b.HeapAlloc),
		HeapInuse:   sub(a.HeapInuse, b.HeapInuse),
		HeapObjects: sub(a.HeapObjects, b.HeapObjects),
	}
}

package core

import (
	"testing"

	"mantle/internal/api"
	"mantle/internal/conformance"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Caps{LoopDetection: true}, func(t *testing.T) api.Service {
		m, err := New(Config{
			TafDB: tafdb.Config{Shards: 4, Delta: tafdb.DeltaAuto},
			Index: indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
}

// The proxy-side cache must never change semantics, only costs.
func TestConformanceWithProxyCache(t *testing.T) {
	conformance.Run(t, conformance.Caps{LoopDetection: true}, func(t *testing.T) api.Service {
		m, err := New(Config{
			ProxyCache: true,
			TafDB:      tafdb.Config{Shards: 4, Delta: tafdb.DeltaAlways},
			Index:      indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
}

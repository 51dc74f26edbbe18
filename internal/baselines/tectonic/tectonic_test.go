package tectonic

import (
	"testing"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/conformance"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Caps{LoopDetection: false}, func(t *testing.T) api.Service {
		return New(Config{Store: dbtable.Config{Shards: 4}})
	})
}

func TestMultiRPCLookupCost(t *testing.T) {
	s := New(Config{Store: dbtable.Config{Shards: 4}})
	defer s.Stop()
	if err := conformance.MkdirAll(s, "/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	op := s.Caller().Begin()
	if _, err := s.Lookup(op, "/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	// Level-by-level traversal: one RPC per component.
	if op.RTTs() != 5 {
		t.Fatalf("lookup RTTs = %d, want 5", op.RTTs())
	}
}

// The legacy distributed-transaction configuration (the pre-Mantle
// DBtable service of §2.3) must behave identically at the API level —
// only its concurrency control differs.
func TestConformanceLegacyTxn(t *testing.T) {
	conformance.Run(t, conformance.Caps{LoopDetection: false}, func(t *testing.T) api.Service {
		return New(Config{Store: dbtable.Config{Shards: 4}, Legacy: true})
	})
}

// The legacy service's name is derived from the switch, not configured.
func TestLegacyNameOverride(t *testing.T) {
	s := New(Config{Store: dbtable.Config{Shards: 2}, Legacy: true})
	defer s.Stop()
	if s.Name() != "dbtable" {
		t.Fatalf("name = %s", s.Name())
	}
	if New(Config{Store: dbtable.Config{Shards: 2}}).Name() != "tectonic" {
		t.Fatal("default name")
	}
}

package mem

import (
	"testing"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 16-byte blocks = 128 bytes.
	return NewCache(CacheConfig{Name: "t", SizeBytes: 128, BlockBytes: 16, Assoc: 2})
}

func TestCacheHitMiss(t *testing.T) {
	c := smallCache()
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Access(8) {
		t.Error("same-block access missed")
	}
	if c.Access(1024) {
		t.Error("different block hit")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("accesses=%d misses=%d, want 4,2", c.Accesses, c.Misses)
	}
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %g, want 0.5", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache()
	// Three blocks mapping to set 0 in a 2-way set: 64-byte set stride.
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent; b is LRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a was evicted, want b evicted (LRU)")
	}
	if c.Access(b) {
		t.Error("b still resident, LRU violated")
	}
}

func TestCacheAssociativityConflict(t *testing.T) {
	// Direct-mapped: two blocks in the same set always conflict.
	c := NewCache(CacheConfig{Name: "dm", SizeBytes: 64, BlockBytes: 16, Assoc: 1})
	c.Access(0)
	c.Access(64)
	if c.Access(0) {
		t.Error("direct-mapped conflict did not evict")
	}
}

func TestCacheReset(t *testing.T) {
	c := smallCache()
	c.Access(0)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("stats survive Reset")
	}
	if c.Access(0) {
		t.Error("contents survive Reset")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{Name: "zero"},
		{Name: "nonpow2block", SizeBytes: 128, BlockBytes: 24, Assoc: 2},
		{Name: "indivisible", SizeBytes: 100, BlockBytes: 16, Assoc: 2},
		{Name: "nonpow2sets", SizeBytes: 96, BlockBytes: 16, Assoc: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s validated, want error", cfg.Name)
		}
	}
	if err := (CacheConfig{Name: "ok", SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4}).Validate(); err != nil {
		t.Errorf("paper L1 config rejected: %v", err)
	}
}

func TestNewCachePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCache accepted invalid config")
		}
	}()
	NewCache(CacheConfig{Name: "bad"})
}

func TestDefaultHierarchyMatchesPaper(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.L1I.SizeBytes != 64<<10 || cfg.L1I.BlockBytes != 32 || cfg.L1I.Assoc != 4 {
		t.Errorf("L1I = %+v, want 64KB/32B/4-way", cfg.L1I)
	}
	if cfg.L1D != (CacheConfig{Name: "L1D", SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4}) {
		t.Errorf("L1D = %+v", cfg.L1D)
	}
	if cfg.L2.SizeBytes != 1<<20 || cfg.L2.BlockBytes != 64 {
		t.Errorf("L2 = %+v, want 1MB/64B", cfg.L2)
	}
	if cfg.L1IHitLat != 1 || cfg.L1DHitLat != 2 || cfg.L2HitLat != 12 || cfg.MemLat != 36 {
		t.Errorf("latencies = %d/%d/%d/%d, want 1/2/12/36",
			cfg.L1IHitLat, cfg.L1DHitLat, cfg.L2HitLat, cfg.MemLat)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold data access: misses L1 and L2.
	if got := h.Data(0); got != 36 {
		t.Errorf("cold access latency = %d, want 36", got)
	}
	// Now resident in both.
	if got := h.Data(0); got != 2 {
		t.Errorf("warm access latency = %d, want 2", got)
	}
	// Evict from tiny view: can't easily; instead test L2-hit path with an
	// address that was installed in L2 via the instruction stream.
	if got := h.Inst(4096); got != 36 {
		t.Errorf("cold inst latency = %d, want 36", got)
	}
	if got := h.Inst(4096); got != 1 {
		t.Errorf("warm inst latency = %d, want 1", got)
	}
	// A data access to the same L2 block as the instruction fetch misses
	// L1D but hits L2.
	if got := h.Data(4096 + 8); got != 12 {
		t.Errorf("L2-hit data latency = %d, want 12", got)
	}
}

func TestHierarchyDataHitProbe(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if h.DataHit(0) {
		t.Error("probe hit cold cache")
	}
	h.Data(0)
	if !h.DataHit(0) {
		t.Error("probe missed warm cache")
	}
	// The probe must not update state.
	before := h.L1D().Accesses
	h.DataHit(0)
	if h.L1D().Accesses != before {
		t.Error("probe counted as an access")
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Data(0)
	h.Inst(0)
	h.Reset()
	if h.L1D().Accesses != 0 || h.L1I().Accesses != 0 || h.L2().Accesses != 0 {
		t.Error("stats survive Reset")
	}
}

func TestResetClearsContents(t *testing.T) {
	c := smallCache()
	c.Access(0)
	c.Reset()
	if c.Access(0) {
		t.Error("block survived Reset")
	}
}

// TestNewHierarchyAllocs pins the flat line layout: each cache is one
// backing array, not a slice header per set.
func TestNewHierarchyAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() { NewHierarchy(DefaultHierarchyConfig()) })
	if allocs > 10 {
		t.Errorf("NewHierarchy made %.0f allocations, want at most 10", allocs)
	}
}

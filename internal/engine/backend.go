package engine

import (
	"context"
	"errors"
	"sync/atomic"
)

// CacheBackend is the pluggable memo-cache seam: the engine stores every
// completed Result under its cache key and answers repeat submissions from
// here. Implementations must be safe for concurrent use, must treat stored
// Results as immutable shared instances, and must tolerate Get/Put after
// Close as no-op misses (the engine's shutdown can race late submissions).
// A lookup miss and a store failure are indistinguishable by design — the
// cache is an optimization, never a source of truth — so backends swallow
// their own I/O errors and report them, if at all, through TierStats.
//
// The in-process sharded LRU (NewMemoryCache), the disk store
// (internal/cachedisk) and the memory→disk composition (NewTieredCache)
// implement it today; networked backends (Redis, memcached) plug in behind
// the same four methods.
type CacheBackend interface {
	// Get returns the result stored under key, or (nil, false).
	Get(key string) (*Result, bool)
	// Put stores res under key, evicting older entries as needed.
	Put(key string, res *Result)
	// Len returns the number of stored entries (summed over tiers for
	// compositions, so an entry resident in two tiers counts twice).
	Len() int
	// Close releases the backend's resources. The engine owns the backend
	// it is configured with and calls Close exactly once from Engine.Close.
	Close() error
}

// CtxCacheBackend is the optional context-aware face of a CacheBackend.
// Networked tiers (the fleet cache) implement it to propagate trace
// context — and honor cancellation — on their remote hops; the engine
// calls the ctx variants when available and falls back to Get/Put
// otherwise, so purely local backends never see a context.
type CtxCacheBackend interface {
	GetCtx(ctx context.Context, key string) (*Result, bool)
	PutCtx(ctx context.Context, key string, res *Result)
}

// cacheGet consults b, preferring the context-aware path.
func cacheGet(ctx context.Context, b CacheBackend, key string) (*Result, bool) {
	if cb, ok := b.(CtxCacheBackend); ok {
		return cb.GetCtx(ctx, key)
	}
	return b.Get(key)
}

// cachePut stores into b, preferring the context-aware path.
func cachePut(ctx context.Context, b CacheBackend, key string, res *Result) {
	if cb, ok := b.(CtxCacheBackend); ok {
		cb.PutCtx(ctx, key, res)
		return
	}
	b.Put(key, res)
}

// CacheTierStats is one tier's telemetry as reported on Stats.CacheTiers.
type CacheTierStats struct {
	// Tier names the tier ("memory", "disk", …).
	Tier string `json:"tier"`
	// Hits and Misses count Get outcomes against this tier. In a tiered
	// composition every lookup consults the tiers in order, so a memory
	// hit never reaches the disk counters, while a disk hit implies a
	// memory miss.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the current number of stored entries; Bytes the tier's
	// storage footprint: exact segment bytes for the disk tier, an
	// at-insert heap estimate for the memory tier, none for a remote
	// tier, which stores nothing.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes,omitempty"`
}

// TierStatser is the optional telemetry interface a CacheBackend may
// implement; the engine surfaces its report on Stats.CacheTiers.
type TierStatser interface {
	TierStats() []CacheTierStats
}

// memoryCache adapts the sharded LRU to CacheBackend, adding the per-tier
// hit/miss accounting the raw cache does not carry.
type memoryCache struct {
	c            *resultCache
	hits, misses atomic.Uint64
}

// NewMemoryCache returns the in-process sharded-LRU backend — the engine's
// default — with the given shard count and total entry capacity. A
// non-positive capacity disables caching (nil backend).
func NewMemoryCache(shards, capacity int) CacheBackend {
	c := newResultCache(shards, capacity)
	if c == nil {
		return nil
	}
	return &memoryCache{c: c}
}

func (m *memoryCache) Get(key string) (*Result, bool) {
	res, ok := m.c.get(key)
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return res, ok
}

func (m *memoryCache) Put(key string, res *Result) { m.c.put(key, res) }
func (m *memoryCache) Len() int                    { return m.c.len() }
func (m *memoryCache) Close() error                { return nil }

func (m *memoryCache) TierStats() []CacheTierStats {
	return []CacheTierStats{{
		Tier:    "memory",
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Entries: m.c.len(),
		Bytes:   m.c.bytes(),
	}}
}

// tieredCache composes a fast tier over a slow one: lookups read
// fast→slow, a slow-tier hit is write-through promoted into the fast tier,
// and stores go to both tiers. With a memory fast tier and a disk slow
// tier this is the warm-restart path: a fresh process misses memory,
// hits disk, and repopulates memory as it serves.
type tieredCache struct {
	fast, slow CacheBackend
}

// NewTieredCache composes fast over slow. Either side may be nil, in which
// case the other is returned unwrapped (both nil yields nil).
func NewTieredCache(fast, slow CacheBackend) CacheBackend {
	if fast == nil {
		return slow
	}
	if slow == nil {
		return fast
	}
	return &tieredCache{fast: fast, slow: slow}
}

func (t *tieredCache) Get(key string) (*Result, bool) {
	if res, ok := t.fast.Get(key); ok {
		return res, true
	}
	res, ok := t.slow.Get(key)
	if ok {
		// Promote: the next lookup of a warm key must not pay the slow
		// tier's decode again.
		t.fast.Put(key, res)
	}
	return res, ok
}

func (t *tieredCache) Put(key string, res *Result) {
	t.fast.Put(key, res)
	t.slow.Put(key, res)
}

// GetCtx and PutCtx thread the caller's context through to whichever tiers
// can use it (the fleet tier traces and cancels its remote hop; local
// tiers take the plain path).
func (t *tieredCache) GetCtx(ctx context.Context, key string) (*Result, bool) {
	if res, ok := cacheGet(ctx, t.fast, key); ok {
		return res, true
	}
	res, ok := cacheGet(ctx, t.slow, key)
	if ok {
		t.fast.Put(key, res)
	}
	return res, ok
}

func (t *tieredCache) PutCtx(ctx context.Context, key string, res *Result) {
	cachePut(ctx, t.fast, key, res)
	cachePut(ctx, t.slow, key, res)
}

func (t *tieredCache) Len() int { return t.fast.Len() + t.slow.Len() }

func (t *tieredCache) Close() error {
	return errors.Join(t.fast.Close(), t.slow.Close())
}

func (t *tieredCache) TierStats() []CacheTierStats {
	var out []CacheTierStats
	for _, b := range []CacheBackend{t.fast, t.slow} {
		if ts, ok := b.(TierStatser); ok {
			out = append(out, ts.TierStats()...)
		}
	}
	return out
}

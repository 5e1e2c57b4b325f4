package factor

// Content-addressed result cache: the LUCachedCtx/QRCachedCtx entry points
// key a factorization by the input's bytes and its numeric options, so a
// serving front end can answer repeated identical requests without paying
// another factorization (or even another pool submission). The cache is a
// bounded LRU with single-flight coalescing: concurrent identical misses
// factor once and share the result.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// ckey is a cache key: a raw sha256 digest. A fixed-size array (rather than
// a string of the digest bytes) keeps the hit path allocation-free — map
// lookups on array keys don't materialize anything.
type ckey [sha256.Size]byte

// cacheEntry is one resident result; val holds a *LUFactorization or
// *QRFactorization shared by every hit (callers must treat it read-only).
// sum is the FNV-1a digest of the resident factor matrix at insertion,
// rechecked on every hit: a long-lived cache is exactly the memory a
// slow bit rot accumulates in, so a mismatching entry is evicted and the
// request refactors instead of serving corrupted factors forever.
type cacheEntry struct {
	key ckey
	val any
	sum uint64
}

// factorChecksum digests the result's in-place factor matrix (the payload
// every hit hands out) word by word with FNV-1a. Allocation-free, so the
// hit path stays pinned by the AllocsPerRun gate in alloc_test.go.
func factorChecksum(v any) uint64 {
	var a *Matrix
	switch f := v.(type) {
	case *LUFactorization:
		a = f.res.A
	case *QRFactorization:
		a = f.res.A
	default:
		return 0
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.Stride : j*a.Stride+a.Rows]
		for _, x := range col {
			h ^= math.Float64bits(x)
			h *= prime
		}
	}
	return h
}

// flight is one in-progress fill that identical concurrent requests join.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// resultCache is the bounded LRU + single-flight store behind the cached
// entry points.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recent
	entries  map[ckey]*list.Element
	inflight map[ckey]*flight

	// hits/misses/evictions are the engine's registered cache metrics
	// (newEngineMetrics); the cache increments them, Stats and /metrics read
	// them. integrityEvictions counts entries dropped on a checksum
	// mismatch.
	hits, misses, evictions, integrityEvictions *obs.Counter
}

func newResultCache(capacity int, met *engineMetrics) *resultCache {
	return &resultCache{
		cap:                capacity,
		ll:                 list.New(),
		entries:            make(map[ckey]*list.Element),
		inflight:           make(map[ckey]*flight),
		hits:               met.cacheHits,
		misses:             met.cacheMisses,
		evictions:          met.cacheEvictions,
		integrityEvictions: met.integrityEvictions,
	}
}

// get returns the resident value for key, if any — the allocation-free hit
// path. The cached entry points call it before constructing the fill
// closure, so a steady-state hit performs no allocation at all (the
// AllocsPerRun gate in alloc_test.go pins this). The entry's checksum is
// rechecked outside the lock; a mismatch evicts it and reports a miss, so
// the caller refactors.
func (c *resultCache) get(key ckey) (any, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	v, want := ent.val, ent.sum
	c.mu.Unlock()
	if factorChecksum(v) != want {
		c.dropCorrupted(key, el)
		return nil, false
	}
	c.hits.Inc()
	return v, true
}

// dropCorrupted evicts an entry whose resident factors no longer match
// their insertion-time checksum. The element identity check tolerates the
// race where a concurrent fill already replaced the entry.
func (c *resultCache) dropCorrupted(key ckey, el *list.Element) {
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == el {
		c.ll.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	c.integrityEvictions.Inc()
}

// do returns the cached value for key, joining an identical in-flight fill
// when one exists, and otherwise filling via fn. The boolean reports a hit
// (including joining a fill — the request did not factor). Failed fills are
// not cached; every joiner of a failed fill gets the leader's error.
func (c *resultCache) do(ctx context.Context, key ckey, fn func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		v, want := ent.val, ent.sum
		c.mu.Unlock()
		if factorChecksum(v) == want {
			c.hits.Inc()
			return v, true, nil
		}
		// Resident entry failed its integrity check: evict it and fall
		// through to the fill path as a miss.
		c.dropCorrupted(key, el)
		c.mu.Lock()
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, false, f.err
			}
			c.hits.Inc()
			return f.val, true, nil
		case <-ctx.Done():
			return nil, false, fmt.Errorf("%w waiting for cached result: %w", ErrCancelled, ctx.Err())
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = fn()

	sum := uint64(0)
	if f.err == nil {
		sum = factorChecksum(f.val)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: f.val, sum: sum})
		for c.ll.Len() > c.cap {
			tail := c.ll.Back()
			c.ll.Remove(tail)
			delete(c.entries, tail.Value.(*cacheEntry).key)
			c.evictions.Inc()
		}
	}
	c.mu.Unlock()
	close(f.done)
	c.misses.Inc()
	return f.val, false, f.err
}

// keyHasher is a pooled sha256 state plus the scratch buffers cacheKey
// writes through; pooling it (and summing into the fixed array) keeps key
// computation allocation-free after warmup.
type keyHasher struct {
	h   hash.Hash
	w   [8]byte
	op  [1]byte
	sum [sha256.Size]byte
}

func (hs *keyHasher) put(v uint64) {
	binary.LittleEndian.PutUint64(hs.w[:], v)
	hs.h.Write(hs.w[:])
}

var keyHashers = sync.Pool{New: func() any { return &keyHasher{h: sha256.New()} }}

// cacheKey hashes everything that determines a factorization's bits: the
// operation, the shape, the numeric options (block size, panel threads,
// tree shape, structured merges, growth guardrail — scheduling-only knobs
// like Workers or Lookahead are deliberately excluded), and the matrix
// contents column by column.
func cacheKey(op byte, a *Matrix, opt core.Options) (k ckey) {
	hs := keyHashers.Get().(*keyHasher)
	hs.h.Reset()
	hs.op[0] = op
	hs.h.Write(hs.op[:])
	hs.put(uint64(a.Rows))
	hs.put(uint64(a.Cols))
	hs.put(uint64(opt.BlockSize))
	hs.put(uint64(opt.PanelThreads))
	hs.put(uint64(opt.Tree))
	if opt.StructuredTree {
		hs.put(1)
	} else {
		hs.put(0)
	}
	hs.put(math.Float64bits(opt.GrowthThreshold))
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.Stride : j*a.Stride+a.Rows]
		for _, v := range col {
			hs.put(math.Float64bits(v))
		}
	}
	copy(k[:], hs.h.Sum(hs.sum[:0]))
	keyHashers.Put(hs)
	return k
}

// LUCachedCtx is Engine.LUCtx behind the content-addressed result cache: it
// never modifies a (misses factor a private clone), and on a hit returns
// the shared cached handle, which the caller must treat as read-only. The
// boolean reports whether the result came from the cache (or an identical
// in-flight request). With EngineConfig.CacheEntries zero the call always
// factors and reports false.
func (e *Engine) LUCachedCtx(ctx context.Context, a *Matrix, opt Options) (*LUFactorization, bool, error) {
	return cachedOn(ctx, e, luOp, a, opt)
}

// QRCachedCtx is Engine.QRCtx behind the result cache, with the same
// contract as LUCachedCtx.
func (e *Engine) QRCachedCtx(ctx context.Context, a *Matrix, opt Options) (*QRFactorization, bool, error) {
	return cachedOn(ctx, e, qrOp, a, opt)
}

// cachedOn serves op through the result cache: a resident hit first, then
// a single-flight fill that factors a clone of a.
func cachedOn[R any, P prepared[R], F any](ctx context.Context, e *Engine, op *operation[R, P, F], a *Matrix, opt Options) (F, bool, error) {
	if e.cache == nil || a == nil {
		f, err := factorOn(ctx, e, op, cloneForCache(a), opt)
		return f, false, err
	}
	key, v, ok := e.cacheHit(op.key, a, opt)
	if ok {
		return v.(F), true, nil
	}
	v, hit, err := e.cache.do(ctx, key, func() (any, error) {
		return factorOn(ctx, e, op, a.Clone(), opt)
	})
	if err != nil {
		var none F
		return none, false, err
	}
	return v.(F), hit, nil
}

// cacheHit computes a request's cache key and looks up a resident entry.
// It is the whole of a steady-state hit, so it must not allocate: no fill
// closure, and the numeric options without engineOptions' callbacks. The
// TestLUCacheHitZeroAlloc gate and calint's hotpath-alloc check both
// cover it.
func (e *Engine) cacheHit(op byte, a *Matrix, opt Options) (ckey, any, bool) {
	key := cacheKey(op, a, e.numericOptions(opt))
	v, ok := e.cache.get(key)
	return key, v, ok
}

// cloneForCache preserves the never-modifies-a contract on the uncached
// fallback path; nil passes through so shape validation reports it.
func cloneForCache(a *Matrix) *Matrix {
	if a == nil {
		return nil
	}
	return a.Clone()
}

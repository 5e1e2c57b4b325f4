// Package ooc models the sequential (out-of-core / memory-hierarchy) side
// of the paper's Section II claim: "with a flat reduction tree, the
// algorithms are optimal in the amount of communication they perform in
// sequential, that is the amount of data transferred between different
// levels of memory."
//
// It provides an LRU cache simulator that counts words moved between a
// fast memory of W words and slow memory, and block-access trace generators
// for the panel factorization algorithms:
//
//   - Flat-tree TSLU streams each panel block exactly once (leaf GEPP),
//     then touches only the b x b candidate sets: ~m*b compulsory words.
//   - Classic column-by-column GEPP re-scans the entire panel once per
//     column: ~b * m*b words when the panel exceeds fast memory.
//
// The tests assert both counts, quantifying the sequential optimality gap.
//
// internal/bench is its only caller: it backs the `cabench -exp ooc`
// table cited in EXPERIMENTS.md.
package ooc

import "fmt"

// Cache simulates a fully associative LRU cache over data blocks. Counts
// are in words (float64 elements).
type Cache struct {
	capacity int64
	used     int64
	// LRU bookkeeping: blocks keyed by id, with a monotonically increasing
	// clock for recency.
	blocks map[int]*cacheBlock
	clock  int64
	// Moved is the total words transferred from slow to fast memory
	// (misses, weighted by block size); Accesses counts Touch calls and
	// Hits the ones fully served from fast memory.
	Moved    int64
	Accesses int64
	Hits     int64
}

type cacheBlock struct {
	words int64
	last  int64
}

// NewCache creates a cache holding capacity words.
func NewCache(capacity int64) *Cache {
	if capacity < 1 {
		panic(fmt.Sprintf("ooc: cache capacity %d", capacity))
	}
	return &Cache{capacity: capacity, blocks: map[int]*cacheBlock{}}
}

// Touch accesses a block of the given size. If the block is resident it is
// a hit; otherwise its words are charged to Moved and older blocks are
// evicted LRU-first to make room. Blocks larger than the cache stream
// through (charged fully, never resident).
func (c *Cache) Touch(id int, words int64) {
	c.Accesses++
	c.clock++
	if b, ok := c.blocks[id]; ok {
		if b.words >= words {
			b.last = c.clock
			c.Hits++
			return
		}
		// Block grew (shouldn't happen in our traces): treat as miss.
		c.used -= b.words
		delete(c.blocks, id)
	}
	c.Moved += words
	if words > c.capacity {
		return // streams through, never resident
	}
	for c.used+words > c.capacity {
		c.evictLRU()
	}
	c.blocks[id] = &cacheBlock{words: words, last: c.clock}
	c.used += words
}

func (c *Cache) evictLRU() {
	var victim int
	var oldest int64 = 1<<63 - 1
	for id, b := range c.blocks {
		if b.last < oldest {
			oldest = b.last
			victim = id
		}
	}
	c.used -= c.blocks[victim].words
	delete(c.blocks, victim)
}

// Resident returns the words currently held in fast memory.
func (c *Cache) Resident() int64 { return c.used }

// PanelTraceTSLU replays the block-access pattern of a flat-tree TSLU on an
// m x b panel split into blocks of `rows` rows against the cache: each
// block is read once for its leaf GEPP, then the b x b candidate sets are
// stacked and factored (they fit together in fast memory by construction of
// the algorithm: Tr*b*b words).
func PanelTraceTSLU(c *Cache, m, b, rows int) {
	id := 0
	for at := 0; at < m; at += rows {
		h := min(rows, m-at)
		c.Touch(id, int64(h)*int64(b)) // leaf block, read once
		id++
	}
	// The stacked candidates: Tr blocks of b x b.
	for at := 0; at < m; at += rows {
		c.Touch(1<<20+at/rows, int64(b)*int64(b))
	}
}

// PanelTraceGEPP replays classic column-by-column partial pivoting: every
// column step scans the whole panel (pivot search + rank-1 update), so each
// block is touched b times.
func PanelTraceGEPP(c *Cache, m, b, rows int) {
	for col := 0; col < b; col++ {
		id := 0
		for at := 0; at < m; at += rows {
			h := min(rows, m-at)
			c.Touch(id, int64(h)*int64(b))
			id++
		}
	}
}

// PanelTraceBlockedGEPP replays a blocked right-looking GEPP panel with
// inner block width nb: the panel is scanned once per inner block rather
// than once per column — b/nb passes.
func PanelTraceBlockedGEPP(c *Cache, m, b, rows, nb int) {
	for j := 0; j < b; j += nb {
		id := 0
		for at := 0; at < m; at += rows {
			h := min(rows, m-at)
			c.Touch(id, int64(h)*int64(b))
			id++
		}
	}
}

// Package scorecache is a bounded, concurrency-safe LRU used to memoize
// expensive planner evaluations: max-flow placement scores keyed by
// canonical placement key (placement.Search, placement.LocalSearch) and
// DDAK layouts keyed by (hotness, bins) fingerprints (adaptive.Replanner).
//
// The planner revisits equivalent configurations constantly — local-search
// restarts walk back through earlier placements, fault-triggered replans
// re-bin into previously seen capacity sets, and repeated Search calls over
// the same machine/demand re-score identical symmetry classes — so a small
// cache converts re-solves into hash lookups.
//
// Like the obs package, a nil *Cache is a valid, fully disabled cache: every
// method no-ops (Get always misses), so call sites thread an optional cache
// without branching.
package scorecache

import (
	"hash/maphash"
	"math"
	"sync"
)

// entry is one resident key/value pair on the intrusive LRU list.
// Indices into the entries slice replace pointers so eviction can recycle
// slots without churning the allocator.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int // intrusive doubly-linked list over entries indices
}

// Cache is a bounded LRU. The zero value is unusable; construct with New.
// A nil *Cache is a valid disabled cache (Get misses, Put drops).
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	index   map[K]int
	entries []entry[K, V]
	head    int // most recently used; -1 when empty
	tail    int // least recently used; -1 when empty
	free    []int

	hits, misses, evictions uint64
}

// New returns an LRU holding at most max entries. max <= 0 disables the
// cache entirely (New returns nil, which every method accepts).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max <= 0 {
		return nil
	}
	return &Cache[K, V]{
		max:   max,
		index: make(map[K]int, max),
		head:  -1,
		tail:  -1,
	}
}

// Get looks k up, promoting it to most-recently-used on a hit.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[k]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.unlink(i)
	c.pushFront(i)
	return c.entries[i].val, true
}

// Put inserts or refreshes k→v, evicting the least-recently-used entry when
// the cache is full.
func (c *Cache[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[k]; ok {
		c.entries[i].val = v
		c.unlink(i)
		c.pushFront(i)
		return
	}
	var i int
	switch {
	case len(c.free) > 0:
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case len(c.entries) < c.max:
		c.entries = append(c.entries, entry[K, V]{})
		i = len(c.entries) - 1
	default:
		// Evict the LRU tail and recycle its slot.
		i = c.tail
		c.unlink(i)
		delete(c.index, c.entries[i].key)
		c.evictions++
	}
	c.entries[i] = entry[K, V]{key: k, val: v}
	c.index[k] = i
	c.pushFront(i)
}

// GetOrCompute returns the cached value for k, computing and inserting it on
// a miss. compute runs outside the cache lock, so concurrent misses on the
// same key may compute redundantly (planner scores are deterministic, so the
// duplicates agree); the first Put wins and later ones refresh with an equal
// value.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() V) V {
	if c == nil {
		return compute()
	}
	if v, ok := c.Get(k); ok {
		return v
	}
	v := compute()
	c.Put(k, v)
	return v
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Cap returns the configured bound (0 for a disabled cache).
func (c *Cache[K, V]) Cap() int {
	if c == nil {
		return 0
	}
	return c.max
}

// Stats reports cumulative hits, misses, and evictions.
func (c *Cache[K, V]) Stats() (hits, misses, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache[K, V]) HitRate() float64 {
	h, m, _ := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Reset drops every entry but keeps the cumulative stats.
func (c *Cache[K, V]) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index = make(map[K]int, c.max)
	c.entries = c.entries[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
}

func (c *Cache[K, V]) unlink(i int) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache[K, V]) pushFront(i int) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Score is one memoized placement evaluation: the min-time result (seconds)
// or the fact that the candidate was infeasible. Err carries the infeasible
// reason for diagnostics; feasibility, not the message, drives planning.
type Score struct {
	Seconds    float64
	Infeasible bool
	Err        string
}

// Scores is the concrete cache the placement planner threads through
// Search, LocalSearch, and replans: canonical-key strings to Score.
type Scores = Cache[string, Score]

// NewScores returns a Score LRU with the given bound (<=0 disables).
func NewScores(max int) *Scores { return New[string, Score](max) }

// Fingerprinting helpers for building cache keys from float payloads
// (demand vectors, hotness snapshots, bin capacity sets). maphash with a
// process-stable seed keeps keys cheap and collision-resistant without
// pulling in crypto.

var fpSeed = maphash.MakeSeed()

// Fingerprint hashes a sequence of float64 payloads into a compact key
// fragment. NaNs are canonicalized so equal-semantics inputs hash equally.
func Fingerprint(vals ...float64) uint64 {
	var h maphash.Hash
	h.SetSeed(fpSeed)
	var buf [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		if v != v { // canonicalize NaN payloads
			bits = math.Float64bits(math.NaN())
		}
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// FingerprintSlice hashes a float slice (length-prefixed, so [1],[ ] and
// [ ],[1] differ) into a compact key fragment.
func FingerprintSlice(vals []float64) uint64 {
	h := NewHasher()
	h.Floats(vals)
	return h.Sum()
}

// Hasher incrementally fingerprints mixed payloads — float vectors, map
// keys, presence markers — into one compact key fragment, for composite
// cache keys that Fingerprint's flat float list can't express (e.g. a
// flownet.Demand with its per-socket DRAM budgets). Zero value is unusable;
// construct with NewHasher. Methods return the receiver for chaining.
type Hasher struct{ h maphash.Hash }

// NewHasher returns a Hasher using the process-stable fingerprint seed, so
// its sums are comparable with Fingerprint/FingerprintSlice outputs within
// one process run.
func NewHasher() *Hasher {
	h := &Hasher{}
	h.h.SetSeed(fpSeed)
	return h
}

// Uint mixes in a raw 64-bit value (lengths, booleans, counters).
func (h *Hasher) Uint(v uint64) *Hasher {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.h.Write(buf[:])
	return h
}

// Float mixes in one float64, canonicalizing NaN payloads like Fingerprint.
func (h *Hasher) Float(v float64) *Hasher {
	bits := math.Float64bits(v)
	if v != v {
		bits = math.Float64bits(math.NaN())
	}
	return h.Uint(bits)
}

// Floats mixes in a float slice, length-prefixed. A nil slice hashes like an
// empty one; use Uint with an explicit marker when nil-ness is semantic.
func (h *Hasher) Floats(vs []float64) *Hasher {
	h.Uint(uint64(len(vs)))
	for _, v := range vs {
		h.Float(v)
	}
	return h
}

// String mixes in a string, length-prefixed.
func (h *Hasher) String(s string) *Hasher {
	h.Uint(uint64(len(s)))
	h.h.WriteString(s)
	return h
}

// Sum returns the fingerprint of everything mixed in so far. The Hasher
// remains usable; further writes extend the payload.
func (h *Hasher) Sum() uint64 { return h.h.Sum64() }

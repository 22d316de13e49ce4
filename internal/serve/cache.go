package serve

import (
	"container/list"
	"sync"

	"haste/internal/core"
)

// problemCache is the content-addressed compiled-problem cache at the
// heart of the service: canonical instance hash (instio.File.Hash) →
// compiled *core.Problem. A hit skips core.NewProblem entirely — the
// request reuses the compiled cover lists, slot windows and the
// AcquireState/ReleaseState pool of the cached Problem, which is safe
// because a Problem is immutable after compilation (the state pool is the
// only mutable part and is itself concurrency-safe).
//
// Two mechanisms bound the work under concurrency:
//
//   - LRU eviction caps resident compiled problems at max entries.
//     Evicted problems stay valid for requests still holding them (the
//     garbage collector retires them once the last request finishes).
//   - Singleflight compilation: the first request for an absent hash
//     compiles; concurrent requests for the same hash wait on that one
//     compilation instead of stampeding NewProblem ("thundering herd").
//     Waiters count as hits — they skipped a compile.
//
// A second, cheaper layer short-circuits repeated identical bodies: the
// byte memo maps the SHA-256 of the raw (uncanonicalized) instance bytes
// to the canonical hash, so a warm request with a byte-identical instance
// skips JSON-decoding the instance altogether. The memo is only ever a
// shortcut to the canonical key — differently formatted spellings of the
// same instance miss the memo but still hit the problem cache.
type problemCache struct {
	mu       sync.Mutex
	problems *lru[string, *core.Problem] // canonical hash → compiled problem
	memo     *lru[string, string]        // byte hash → canonical hash
	inflight map[string]*compileCall

	// Counters, guarded by mu. Every get() resolves to exactly one of
	// hits / misses / compileErrors, so for any quiesced workload
	// hits + misses + compileErrors == schedule requests that reached
	// the cache — the reconciliation the concurrency suite asserts.
	hits          int64
	misses        int64
	compileErrors int64
	evictions     int64
	memoHits      int64
}

type compileCall struct {
	done chan struct{}
	p    *core.Problem
	err  error
}

func newProblemCache(max, memoMax int) *problemCache {
	return &problemCache{
		problems: newLRU[string, *core.Problem](max),
		memo:     newLRU[string, string](memoMax),
		inflight: make(map[string]*compileCall),
	}
}

// CacheStats is a point-in-time snapshot of the cache counters, exposed on
// /metrics and asserted by the tests.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	CompileErrors int64 `json:"compile_errors"`
	Evictions     int64 `json:"evictions"`
	MemoHits      int64 `json:"byte_memo_hits"`
	Entries       int   `json:"entries"`
}

func (c *problemCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		CompileErrors: c.compileErrors,
		Evictions:     c.evictions,
		MemoHits:      c.memoHits,
		Entries:       c.problems.order.Len(),
	}
}

// get returns the compiled problem for canonical hash h, compiling it at
// most once across concurrent callers. The leader counts as a miss (it
// paid NewProblem); joiners count as hits. Failed compilations are not
// cached — the instance is invalid and fails fast on revalidation.
//
// With a nil compile, get only finds a resident or in-flight problem:
// when there is none it returns hit = false and counts nothing, so the
// caller's later get with a compile function still records exactly one
// outcome.
func (c *problemCache) get(h string, compile func() (*core.Problem, error)) (*core.Problem, bool, error) {
	c.mu.Lock()
	if p, ok := c.problems.get(h); ok {
		c.hits++
		c.mu.Unlock()
		return p, true, nil
	}
	if call, ok := c.inflight[h]; ok {
		c.mu.Unlock()
		<-call.done
		c.mu.Lock()
		if call.err != nil {
			c.compileErrors++
		} else {
			c.hits++
		}
		c.mu.Unlock()
		return call.p, true, call.err
	}
	if compile == nil {
		c.mu.Unlock()
		return nil, false, nil
	}
	call := &compileCall{done: make(chan struct{})}
	c.inflight[h] = call
	c.mu.Unlock()

	call.p, call.err = compile()

	c.mu.Lock()
	delete(c.inflight, h)
	if call.err != nil {
		c.compileErrors++
	} else {
		c.misses++
		c.evictions += int64(c.problems.add(h, call.p))
	}
	c.mu.Unlock()
	close(call.done)
	if call.err != nil {
		return nil, false, call.err
	}
	return call.p, false, nil
}

// memoGet resolves a raw-bytes hash to the canonical hash of the instance
// those bytes decode to, when this exact body has been seen before.
func (c *problemCache) memoGet(byteHash string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	canon, ok := c.memo.get(byteHash)
	if ok {
		c.memoHits++
	}
	return canon, ok
}

// memoAdd records the byte-hash → canonical-hash mapping (bounded LRU).
func (c *problemCache) memoAdd(byteHash, canonHash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memo.add(byteHash, canonHash)
}

// lru is a bounded map that evicts its least recently used key. It is
// not safe for concurrent use; problemCache guards both of its LRUs with
// its mutex.
type lru[K comparable, V any] struct {
	max   int
	order *list.List // front = most recently used, values are *lruEntry
	byKey map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, order: list.New(), byKey: make(map[K]*list.Element)}
}

// get returns the value under k and marks it most recently used.
func (l *lru[K, V]) get(k K) (V, bool) {
	el, ok := l.byKey[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add stores v under k as the most recently used key and returns how
// many keys it evicted to stay within the bound.
func (l *lru[K, V]) add(k K, v V) int {
	if el, ok := l.byKey[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		l.order.MoveToFront(el)
		return 0
	}
	l.byKey[k] = l.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	evicted := 0
	for l.order.Len() > l.max {
		tail := l.order.Back()
		l.order.Remove(tail)
		delete(l.byKey, tail.Value.(*lruEntry[K, V]).key)
		evicted++
	}
	return evicted
}

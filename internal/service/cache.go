// ResultCache, an LRU+TTL byte cache of encoded responses keyed by the
// canonical-key hash of the request. The daemon no longer builds one:
// its result cache is a diskcache.Cache (see Server.cache). The type
// stays exported because perfbench/trace.go builds one to replay the
// memory tier of earlier daemons.

package service

import (
	"container/list"
	"sync"
	"time"
)

type cacheEntry struct {
	key    string
	val    []byte
	stored time.Time
}

// ResultCache is a thread-safe LRU+TTL byte cache, kept for
// perfbench's traced replay; the daemon does not use it.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	now     func() time.Time
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

// NewResultCache returns a cache holding at most maxEntries responses
// (minimum 1), each valid for ttl after insertion (ttl <= 0 disables
// expiry).
func NewResultCache(maxEntries int, ttl time.Duration) *ResultCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &ResultCache{
		max:     maxEntries,
		ttl:     ttl,
		now:     time.Now,
		order:   list.New(),
		entries: map[string]*list.Element{},
	}
}

// Get returns the cached bytes for key, promoting the entry to
// most-recently-used. Expired entries are dropped on access.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if c.ttl > 0 && c.now().Sub(e.stored) > c.ttl {
		c.order.Remove(el)
		delete(c.entries, key)
		return nil, false
	}
	c.order.MoveToFront(el)
	return e.val, true
}

// Put stores val under key (refreshing the TTL if the key exists) and
// returns the number of entries evicted to stay under the cap.
func (c *ResultCache) Put(key string, val []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val = val
		e.stored = c.now()
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val, stored: c.now()})
	evicted := 0
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// Len returns the current entry count.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Keys returns the keys from most to least recently used (the LRU
// eviction order reversed) — test and debugging introspection.
func (c *ResultCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}

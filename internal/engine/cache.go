package engine

import (
	"container/list"
	"sync"
)

// Cache is a bounded, mutex-guarded LRU map. It backs both the engine's
// expanded-model cache and the facade's memoised query results; a
// dedicated type (rather than a plain map) keeps memory bounded under
// the north-star workload of many distinct models passing through one
// long-lived Solver.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *pair[K, V]
	items    map[K]*list.Element
	onEvict  func(K, V)
}

type pair[K comparable, V any] struct {
	key K
	val V
}

// NewCache returns an LRU cache holding at most capacity entries;
// capacity < 1 selects 1.
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*pair[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*pair[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&pair[K, V]{key: key, val: val})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		p := oldest.Value.(*pair[K, V])
		delete(c.items, p.key)
		if c.onEvict != nil {
			c.onEvict(p.key, p.val)
		}
	}
}

// SetOnEvict registers a callback invoked for every evicted entry. The
// callback runs with the cache lock held and must not call back into the
// cache; it exists to feed eviction counters. Set it before the cache is
// shared across goroutines.
func (c *Cache[K, V]) SetOnEvict(fn func(K, V)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

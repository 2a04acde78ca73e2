package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// handle is one pooled open file. refs counts the readers currently
// using it; a handle evicted or closed while referenced is marked dead
// and closed by the last release, so no ReadAt ever races a Close.
//
// A handle is inserted before its file is opened: ready is closed when
// the open completes (f or err set), so concurrent acquires of the
// same path wait on the channel — outside the cache lock — instead of
// opening a duplicate.
type handle struct {
	path string
	f    File          // set once before ready closes; read via <-ready
	err  error         // set once before ready closes; read via <-ready
	refs int           //dvlint:guardedby handleCache.mu
	dead bool          //dvlint:guardedby handleCache.mu
	elem *list.Element //dvlint:guardedby handleCache.mu

	ready chan struct{}
}

// handleCache is a bounded LRU over open files. The map and list hold
// only live (non-dead) handles, so residency never exceeds max even
// when referenced handles are evicted — those live on solely through
// their refs and are closed on the final release.
type handleCache struct {
	mu     sync.Mutex
	max    int
	open   func(path string) (File, error)
	m      map[string]*handle //dvlint:guardedby mu
	lru    *list.List         //dvlint:guardedby mu (front = most recent)
	opens  int64              //dvlint:guardedby mu
	evicts int64              //dvlint:guardedby mu
}

func newHandleCache(max int, open func(path string) (File, error)) *handleCache {
	return &handleCache{
		max:  max,
		open: open,
		m:    map[string]*handle{},
		lru:  list.New(),
	}
}

// acquire returns a referenced handle for path, opening it on a miss
// and evicting the least recently used unreferenced handle when over
// budget. All blocking work — the open and the victims' closes —
// happens outside the lock; a placeholder handle inserted before the
// open keeps misses single-flight (racing acquires wait on ready).
func (c *handleCache) acquire(path string) (*handle, error) {
	c.mu.Lock()
	if h, ok := c.m[path]; ok {
		h.refs++
		c.lru.MoveToFront(h.elem)
		c.mu.Unlock()
		<-h.ready
		if h.err != nil {
			c.release(h)
			return nil, fmt.Errorf("cache: %w", h.err)
		}
		return h, nil
	}

	c.opens++
	h := &handle{path: path, refs: 1, ready: make(chan struct{})}
	h.elem = c.lru.PushFront(h)
	c.m[path] = h
	// The placeholder counts toward the budget, so evict now; victims
	// are closed after unlocking.
	var victims []File
	for c.lru.Len() > c.max {
		tail := c.lru.Back()
		if tail == nil || tail == h.elem {
			break
		}
		victim := tail.Value.(*handle)
		c.lru.Remove(tail)
		delete(c.m, victim.path)
		c.evicts++
		if victim.refs == 0 {
			if victim.f != nil {
				victims = append(victims, victim.f)
				victim.f = nil
			}
		} else {
			victim.dead = true // last release closes it
		}
	}
	c.mu.Unlock()

	for _, f := range victims {
		f.Close() //nolint:errcheck — read-only handle
	}
	f, err := c.open(path)

	c.mu.Lock()
	h.f, h.err = f, err
	if err != nil {
		// Withdraw the placeholder so a later acquire retries the open
		// (unless it was evicted meanwhile, or the slot re-used).
		h.dead = true
		h.refs--
		c.lru.Remove(h.elem) // no-op if already evicted
		if c.m[path] == h {
			delete(c.m, path)
		}
	}
	c.mu.Unlock()
	close(h.ready)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return h, nil
}

// release drops one reference; a dead handle is closed — outside the
// lock — when the last reference goes away.
func (c *handleCache) release(h *handle) {
	c.mu.Lock()
	h.refs--
	var toClose File
	if h.dead && h.refs == 0 && h.f != nil {
		toClose = h.f
		h.f = nil
	}
	c.mu.Unlock()
	if toClose != nil {
		toClose.Close() //nolint:errcheck
	}
}

// closeAll closes every unreferenced handle and marks the rest dead.
// The closes happen after the lock is dropped.
func (c *handleCache) closeAll() {
	c.mu.Lock()
	var toClose []File
	for _, h := range c.m {
		if h.refs == 0 {
			if h.f != nil {
				toClose = append(toClose, h.f)
				h.f = nil
			}
		} else {
			h.dead = true
		}
	}
	c.m = map[string]*handle{}
	c.lru.Init()
	c.mu.Unlock()
	for _, f := range toClose {
		f.Close() //nolint:errcheck
	}
}

// stats reports open/evict totals.
func (c *handleCache) stats() (opens, evicts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opens, c.evicts
}

package runner

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"resizecache/internal/sim"
)

// memo is the runner's single-flight table, instantiated once for
// simulation results and once for artifact payloads. The first caller
// to ask for a key claims its slot and owns it: it computes the outcome
// and publishes it. Later callers of the same key get the published
// outcome at once, or join the owner and wait for it. Published
// outcomes stay in the table as the memo, except those evicts rejects,
// which leave it so a later caller can claim the key again.
// Only the results table has a limit and feeds its joins and evictions
// to Stats; only the artifact table passes do an accept, and so drops.
type memo[V any] struct {
	// limit bounds the published slots kept; the least recently used
	// beyond it are evicted (0 = unbounded).
	limit int
	// evicts reports which error outcomes leave the table on publish.
	evicts func(error) bool

	mu    sync.Mutex
	slots map[sim.Key]*slot[V]
	lru   list.List // of sim.Key; front = most recently used

	// joins counts callers that waited on an unpublished slot; evictions
	// counts published slots dropped by the limit.
	joins, evictions atomic.Uint64
}

// slot is one key's place in a memo. done closes when the owner
// publishes val and err.
type slot[V any] struct {
	done chan struct{}
	val  V
	err  error
	elem *list.Element // LRU position once published (nil if unbounded)
}

// how tells a memo caller where its outcome came from.
type how uint8

const (
	owned  how = iota // the caller claimed the slot and published it
	hit               // the slot was already published
	joined            // the caller waited for another owner's publish
)

func newMemo[V any](limit int, evicts func(error) bool) *memo[V] {
	return &memo[V]{limit: limit, evicts: evicts, slots: make(map[sim.Key]*slot[V])}
}

// peek returns key's slot without claiming it (nil when it has none)
// and whether it is published. Both are read under the lock, and
// publish deletes an outcome that leaves the table before it closes
// done, so peek never reports such an outcome published. A published
// slot counts as used for the LRU bound.
func (m *memo[V]) peek(key sim.Key) (*slot[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[key]
	return s, s != nil && m.state(s, true) == hit
}

// claim returns key's slot, creating it when there is none, and how the
// caller stands to it: owned when claim created it (the caller must
// publish it), hit when it is published, joined when its owner has yet
// to publish it. As with peek, a hit never leaves the table. touch
// makes a hit count as used for the LRU bound.
func (m *memo[V]) claim(key sim.Key, touch bool) (*slot[V], how) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.slots[key]; ok {
		return s, m.state(s, touch)
	}
	s := &slot[V]{done: make(chan struct{})}
	m.slots[key] = s
	return s, owned
}

// state reports whether s is published (hit) or not (joined), and with
// touch moves a published s to the LRU front. The caller holds m.mu.
func (m *memo[V]) state(s *slot[V], touch bool) how {
	select {
	case <-s.done:
	default:
		return joined
	}
	if touch && s.elem != nil {
		m.lru.MoveToFront(s.elem)
	}
	return hit
}

// publish records the outcome of the slot the caller owns and wakes its
// waiters. An outcome evicts rejects leaves the table; with a limit the
// others join the LRU list, evicting the least recently used published
// slots beyond it.
func (m *memo[V]) publish(key sim.Key, s *slot[V], v V, err error) {
	s.val, s.err = v, err
	m.mu.Lock()
	switch {
	case err != nil && m.evicts(err):
		delete(m.slots, key)
	case m.limit > 0:
		s.elem = m.lru.PushFront(key)
		for m.lru.Len() > m.limit {
			oldest := m.lru.Back()
			m.lru.Remove(oldest)
			delete(m.slots, oldest.Value.(sim.Key))
			m.evictions.Add(1)
		}
	}
	m.mu.Unlock()
	close(s.done)
}

// drop removes a published slot, if it is still key's, so the next
// caller claims the key afresh.
func (m *memo[V]) drop(key sim.Key, s *slot[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slots[key] != s {
		return
	}
	delete(m.slots, key)
	if s.elem != nil {
		m.lru.Remove(s.elem)
	}
}

// do resolves key. A caller that finds no slot claims one and calls
// own, which must publish it; otherwise do returns the published
// outcome, waiting for the owner first if need be. A joined outcome
// that left the table does not apply to a caller whose ctx is live, and
// a published value accept returns an error for is dropped: in both
// cases the caller claims again. accept may be nil (every value is
// accepted); do calls own and accept and keeps neither. A caller whose
// ctx ends before it claims or joins gets its ctx's error as owned: it
// resolved nothing.
func (m *memo[V]) do(ctx context.Context, key sim.Key, accept func(V) error, own func(*slot[V])) (V, error, how) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err, owned
		}
		s, from := m.claim(key, true)
		switch from {
		case owned:
			own(s)
			return s.val, s.err, owned
		case joined:
			m.joins.Add(1)
			select {
			case <-s.done:
			case <-ctx.Done():
				return zero, ctx.Err(), joined
			}
			if s.err != nil && m.evicts(s.err) {
				if err := ctx.Err(); err != nil {
					return zero, err, joined
				}
				continue
			}
		}
		if s.err == nil && accept != nil && accept(s.val) != nil {
			m.drop(key, s)
			continue
		}
		return s.val, s.err, from
	}
}

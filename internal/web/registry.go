package web

// Session registry with per-session locking.
//
// The original server guarded every session of every user with one
// global mutex, so a single long-running fast-forward froze the whole
// tool. The registry replaces that with a two-level scheme: a
// read-mostly map (RWMutex) from id to handle, and one mutex per
// handle that serializes requests to that session only. Handlers
// acquire a session with its lock already held and keep it for the
// duration of the request, which also closes the lookup/re-lock TOCTOU
// window of the old code — a session can no longer be stepped after a
// concurrent eviction, because eviction marks the handle gone under
// the same per-session lock.
//
// Lifecycle: sessions carry a last-access timestamp; a background
// reaper evicts sessions idle past the TTL, and an LRU cap bounds the
// number of live sessions. Evicted ids leave a bounded tombstone
// behind so clients get 410 Gone (the session existed, stop retrying)
// rather than 404 Not Found.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

var (
	errSessionUnknown = errors.New("web: unknown session")
	errSessionGone    = errors.New("web: session expired or evicted")
)

// maxTombstones bounds the memory spent remembering evicted ids.
const maxTombstones = 4096

// handle is one registered session. Its mutex serializes all work on
// the session; requests to different sessions never contend.
type handle[T any] struct {
	id         string
	mu         sync.Mutex
	val        T
	gone       bool // set once under mu when the session is evicted
	lastAccess atomic.Int64
}

// release unlocks the handle; pair with every successful acquire.
func (h *handle[T]) release() { h.mu.Unlock() }

// evictHandle flags the handle so in-flight lookups fail with 410. It
// is called after the handle left the map, never while a map lock is
// held, so it can wait for a running request to finish. While the
// per-session lock is held — i.e. with exclusive access to the
// session's state — the eviction hook runs, which is where the spill
// layer serializes the session before it becomes unreachable, and then
// the close hook ends the session's engine.
func (r *registry[T]) evictHandle(h *handle[T]) {
	h.mu.Lock()
	if !h.gone {
		if r.onEvict != nil {
			r.onEvict(h.id, h.val)
		}
		if r.onClose != nil {
			r.onClose(h.val)
		}
	}
	h.gone = true
	h.mu.Unlock()
}

type registry[T any] struct {
	mu      sync.RWMutex
	entries map[string]*handle[T]
	tombs   map[string]struct{}
	tombQ   []string
	maxLive int           // LRU cap on live sessions (0 = unlimited)
	ttl     time.Duration // idle eviction threshold (0 = never)

	// onEvict, when set, observes every eviction with the per-session
	// lock held and the session state still intact — the spill hook.
	// onClose, when set, runs after it under the same lock and ends
	// the session's engine: nothing reaches an evicted session's state
	// again, since every later request answers 410 and busy-session
	// scrapes read only published snapshots. Both are set once before
	// the registry serves traffic.
	onEvict func(id string, v T)
	onClose func(v T)
}

func newRegistry[T any](maxLive int, ttl time.Duration) *registry[T] {
	return &registry[T]{
		entries: make(map[string]*handle[T]),
		tombs:   make(map[string]struct{}),
		maxLive: maxLive,
		ttl:     ttl,
	}
}

// put registers a new session. When the registry is at its cap, the
// least recently used session is evicted to make room. Re-registering
// an evicted id (a restored session) clears its tombstone, so the id
// answers requests again instead of 410.
func (r *registry[T]) put(id string, v T, now time.Time) (evicted string) {
	r.mu.Lock()
	var victim *handle[T]
	if r.maxLive > 0 && len(r.entries) >= r.maxLive {
		for _, h := range r.entries {
			if victim == nil || h.lastAccess.Load() < victim.lastAccess.Load() {
				victim = h
			}
		}
		if victim != nil {
			r.dropLocked(victim.id)
		}
	}
	h := &handle[T]{id: id, val: v}
	h.lastAccess.Store(now.UnixNano())
	r.entries[id] = h
	// Revive: drop the tombstone but leave the (bounded) queue entry;
	// a stale queue head at trim time merely forgets another tombstone
	// a bit early, degrading a 410 into a 404.
	delete(r.tombs, id)
	r.mu.Unlock()
	if victim != nil {
		r.evictHandle(victim)
		return victim.id
	}
	return ""
}

// acquire looks the session up and returns its handle with the
// per-session lock held; the caller must release() it. Unknown ids
// yield errSessionUnknown, evicted ones errSessionGone.
func (r *registry[T]) acquire(id string, now time.Time) (*handle[T], error) {
	r.mu.RLock()
	h, ok := r.entries[id]
	if !ok {
		_, tomb := r.tombs[id]
		r.mu.RUnlock()
		if tomb {
			return nil, errSessionGone
		}
		return nil, errSessionUnknown
	}
	r.mu.RUnlock()
	h.mu.Lock()
	if h.gone {
		h.mu.Unlock()
		return nil, errSessionGone
	}
	h.lastAccess.Store(now.UnixNano())
	return h, nil
}

// reap evicts every session idle longer than the TTL and returns the
// evicted ids.
func (r *registry[T]) reap(now time.Time) []string {
	if r.ttl <= 0 {
		return nil
	}
	cutoff := now.Add(-r.ttl).UnixNano()
	return r.evictWhere(func(h *handle[T]) bool { return h.lastAccess.Load() < cutoff })
}

// evictAll evicts every live session, as at shutdown.
func (r *registry[T]) evictAll() {
	r.evictWhere(func(*handle[T]) bool { return true })
}

// evictWhere evicts every live session whose handle matches and
// returns the evicted ids.
func (r *registry[T]) evictWhere(match func(*handle[T]) bool) []string {
	r.mu.Lock()
	var victims []*handle[T]
	for _, h := range r.entries {
		if match(h) {
			victims = append(victims, h)
		}
	}
	ids := make([]string, 0, len(victims))
	for _, h := range victims {
		r.dropLocked(h.id)
		ids = append(ids, h.id)
	}
	r.mu.Unlock()
	for _, h := range victims {
		r.evictHandle(h)
	}
	return ids
}

// dropLocked removes id from the live map and records a tombstone.
// Caller holds r.mu and must evictHandle() the handle afterwards.
func (r *registry[T]) dropLocked(id string) {
	delete(r.entries, id)
	if _, ok := r.tombs[id]; !ok {
		r.tombs[id] = struct{}{}
		r.tombQ = append(r.tombQ, id)
		if len(r.tombQ) > maxTombstones {
			delete(r.tombs, r.tombQ[0])
			r.tombQ = r.tombQ[1:]
		}
	}
}

// tombstone records id as evicted without it being live — used when a
// restore fails terminally, so subsequent requests get a definitive
// 410 instead of re-running the failing restore.
func (r *registry[T]) tombstone(id string) {
	r.mu.Lock()
	if _, live := r.entries[id]; !live {
		r.dropLocked(id)
	}
	r.mu.Unlock()
}

// size reports the number of live sessions.
func (r *registry[T]) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// tombCount reports the number of remembered evicted ids.
func (r *registry[T]) tombCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tombs)
}

// forEach visits every live session. For each handle it TryLocks the
// per-session mutex: idle sessions are visited with the lock held and
// fresh=true, so f may touch session-owned state directly (e.g. force
// a dd.Pkg.PublishStats so scrapes never see a stale snapshot). Busy
// sessions — a request or fast-forward holds the lock — are visited
// with fresh=false, and f must restrict itself to race-clean reads
// (atomically published state such as LastStats). TryLock is what
// keeps the metrics scrape from stalling behind a long-running
// fast-forward while still refreshing every session that is not
// actively working.
func (r *registry[T]) forEach(f func(id string, v T, fresh bool)) {
	r.mu.RLock()
	handles := make([]*handle[T], 0, len(r.entries))
	for _, h := range r.entries {
		handles = append(handles, h)
	}
	r.mu.RUnlock()
	for _, h := range handles {
		if h.mu.TryLock() {
			if !h.gone {
				f(h.id, h.val, true)
			}
			h.mu.Unlock()
		} else {
			f(h.id, h.val, false)
		}
	}
}

// peek returns the stored value without taking the per-session lock.
// The value pointer is written once before the handle is published and
// never mutated, so the read is race-clean; callers must only use the
// value's cross-goroutine-safe surface (the flight recorder's
// Snapshot, LastStats). Evicted and unknown ids report false.
func (r *registry[T]) peek(id string) (T, bool) {
	r.mu.RLock()
	h, ok := r.entries[id]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, false
	}
	return h.val, true
}

package web

// Spill-to-disk sessions: eviction (TTL or LRU) serializes the session
// into a checksummed snapshot instead of destroying it, and the next
// request for the id transparently restores it — 410 Gone becomes a
// restore path. The moving parts:
//
//   - The registry's onEvict hook fires with the per-session lock held
//     and the state intact; it encodes the snapshot synchronously
//     (cheap: a DFS over the diagram) and hands the bytes to the
//     spiller.
//   - The spiller publishes the bytes in a pending map first, then
//     writes them to the store on a background goroutine. A request
//     arriving between eviction and write completion restores from the
//     pending map, closing the evict/restore race without blocking
//     eviction on disk I/O.
//   - Restore runs under a per-id singleflight: concurrent requests
//     for the same evicted session wait for one restore rather than
//     decode the snapshot N times. Restored sessions re-enter the
//     registry under their original id (clearing the tombstone).
//
// Every failure degrades to the pre-spill behavior — evict to
// tombstone, answer 410 — and is counted and logged with the request
// id: durability problems must be visible, never fatal, and a corrupt
// snapshot must never surface as session state.

import (
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"quantumdd/internal/snapshot"
)

// spiller owns the session store plus the in-flight write tracking.
type spiller struct {
	store   *snapshot.Store
	logger  *slog.Logger
	metrics *serverMetrics

	mu      sync.Mutex
	pending map[string][]byte // encoded, not yet durably on disk
	wg      sync.WaitGroup    // in-flight background writes
}

func newSpiller(store *snapshot.Store, logger *slog.Logger, metrics *serverMetrics) *spiller {
	return &spiller{
		store:   store,
		logger:  logger,
		metrics: metrics,
		pending: make(map[string][]byte),
	}
}

// spill accepts an encoded snapshot for id and schedules the durable
// write. It returns immediately; the registry eviction path must not
// block on disk.
func (sp *spiller) spill(id string, kind int, blob []byte) {
	sp.mu.Lock()
	sp.pending[id] = blob
	sp.mu.Unlock()
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		start := time.Now()
		err := sp.store.Put(id, blob)
		sp.metrics.spillSeconds.Observe(time.Since(start).Seconds())
		sp.mu.Lock()
		// Only clear the pending entry if it is still ours: a re-evict
		// of a restored session may have published fresher bytes.
		if cur, ok := sp.pending[id]; ok && &cur[0] == &blob[0] {
			delete(sp.pending, id)
		}
		sp.mu.Unlock()
		if err != nil {
			// Degraded path: the session is now just a tombstone, as
			// before spill existed. No request is associated with a
			// background write, so this warning carries the session id
			// only.
			sp.metrics.spillFailures[kind].Inc()
			sp.logger.Warn("session spill failed; session degraded to tombstone",
				"component", "spill", "sessionId", id, "error", err)
			return
		}
		sp.metrics.spills[kind].Inc()
	}()
}

// fetch returns the newest snapshot bytes for id: the pending map wins
// over the store (it is always at least as fresh).
func (sp *spiller) fetch(id string) ([]byte, error) {
	sp.mu.Lock()
	blob, ok := sp.pending[id]
	sp.mu.Unlock()
	if ok {
		return blob, nil
	}
	return sp.store.Get(id)
}

// forget removes id's snapshot everywhere; called after a successful
// restore (the snapshot is stale the moment the session steps) and
// when a snapshot proves corrupt.
func (sp *spiller) forget(id string) {
	sp.mu.Lock()
	delete(sp.pending, id)
	sp.mu.Unlock()
	if err := sp.store.Delete(id); err != nil {
		sp.logger.Warn("snapshot delete failed", "component", "spill", "sessionId", id, "error", err)
	}
}

// flush waits for all in-flight background writes — graceful shutdown
// must not lose spills that eviction already promised.
func (sp *spiller) flush() { sp.wg.Wait() }

// restoreFlight is the per-id singleflight for restores.
type restoreFlight struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

// begin claims the restore of id. The first caller gets run=true and
// must call the returned done func when finished; later callers block
// until then and get run=false (they re-try acquire afterwards).
func (rf *restoreFlight) begin(id string) (done func(), run bool) {
	rf.mu.Lock()
	if rf.m == nil {
		rf.m = make(map[string]chan struct{})
	}
	if ch, ok := rf.m[id]; ok {
		rf.mu.Unlock()
		<-ch
		return nil, false
	}
	ch := make(chan struct{})
	rf.m[id] = ch
	rf.mu.Unlock()
	return func() {
		rf.mu.Lock()
		delete(rf.m, id)
		rf.mu.Unlock()
		close(ch)
	}, true
}

// spillEnabled reports whether the durability layer is active.
func (s *Server) spillEnabled() bool { return s.spill != nil }

// spillSession is the registry's eviction hook.
func (k *sessionKind) spillSession(id string, sess session) {
	k.srv.spill.spill(id, k.idx, sess.snapshot())
}

// acquire looks up a session, transparently restoring it from the
// spill store when it was evicted (or the process restarted). Every
// request to a session passes through it.
func (k *sessionKind) acquire(r *http.Request, id string, now time.Time) (*handle[session], error) {
	for {
		h, err := k.reg.acquire(id, now)
		if err == nil {
			// The single choke point every request to the session passes
			// through — where the resource account counts it.
			h.val.base().acct.touch()
			return h, nil
		}
		if !k.srv.spillEnabled() || !restorable(err) || !k.restore(r, id, now) {
			return nil, err
		}
	}
}

// restorable reports whether a lookup failure may be answered by the
// spill store. Unknown ids are included: after a process restart the
// registry is empty but the spill directory is not.
func restorable(err error) bool {
	return errors.Is(err, errSessionGone) || errors.Is(err, errSessionUnknown)
}

// restore attempts one singleflight restore of id and reports whether
// a retry of acquire is worthwhile.
func (k *sessionKind) restore(r *http.Request, id string, now time.Time) bool {
	if !strings.HasPrefix(id, k.label()+"-") {
		// The id names the other tab's session (ids are "<kind>-N"):
		// answer as for a live one of that kind (404) without reading
		// its snapshot, counting anything or tombstoning the id.
		return false
	}
	s := k.srv
	done, run := s.restores.begin(id)
	if !run {
		// Another request restored (or failed to); re-try acquire
		// either way — on success the registry now has the session.
		return true
	}
	defer done()
	start := time.Now()
	blob, err := s.spill.fetch(id)
	if err != nil {
		if !errors.Is(err, snapshot.ErrNotFound) {
			// Store unavailable — the degraded path the fault harness
			// exercises. The session stays a tombstone.
			s.metrics.restoreFailures[k.idx].Inc()
			s.reqLogger(r).Warn("session restore degraded: spill store unavailable",
				"component", "spill", "sessionId", id, "error", err)
		}
		return false
	}
	sess, err := k.resume(blob, s.cfg.MaxNodes)
	if err != nil {
		// Checksum/truncation damage counts as corruption; a snapshot
		// that decodes but fails validation (format, budget, stale
		// semantics) counts as a restore failure only.
		reason := "invalid"
		switch {
		case errors.Is(err, snapshot.ErrChecksum), errors.Is(err, snapshot.ErrTruncated):
			reason = "corrupt"
			s.metrics.corruptions[k.idx].Inc()
		case errors.Is(err, snapshot.ErrFormat):
			reason = "malformed"
			s.metrics.corruptions[k.idx].Inc()
		}
		s.metrics.restoreFailures[k.idx].Inc()
		s.reqLogger(r).Warn("session restore degraded to tombstone",
			"component", "spill", "sessionId", id, "reason", reason, "error", err)
		// The snapshot is unusable: drop it, and tombstone the id so
		// later requests get a definitive 410 instead of retrying.
		s.spill.forget(id)
		k.reg.tombstone(id)
		return false
	}
	s.instrument(id, sess)
	s.spill.forget(id)
	k.put(r, id, sess, now)
	s.metrics.restoreSeconds.Observe(time.Since(start).Seconds())
	s.metrics.restores[k.idx].Inc()
	s.reqLogger(r).Info("session restored from spill",
		"component", "spill", "sessionId", id, "kind", k.label())
	return true
}

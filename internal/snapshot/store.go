package snapshot

// Store is the spill-to-disk side of durable sessions: a flat
// directory of <id>.snap files, one checksummed envelope each. Writes
// are atomic (temp file + rename) so a crash mid-spill leaves either
// the previous snapshot or none — never a torn file that would fail
// its CRC on restore. Transient I/O errors are retried with backoff;
// a byte cap evicts the oldest snapshots first, mirroring the
// registry's own LRU bias.
//
// All filesystem access goes through the FS interface so the fault
// harness (subpackage faultfs) can deterministically inject write
// failures, short reads, and bit-flips into every path the web layer
// exercises.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNotFound reports that no snapshot exists for the requested id.
var ErrNotFound = errors.New("snapshot: not found")

// FS is the filesystem surface the store needs. OSFS is the real
// implementation; faultfs wraps any FS with deterministic faults.
type FS interface {
	MkdirAll(path string) error
	WriteFile(path string, data []byte) error
	Rename(oldPath, newPath string) error
	ReadFile(path string) ([]byte, error)
	Remove(path string) error
	ReadDir(path string) ([]FileInfo, error)
}

// FileInfo is the directory-listing subset the store uses to rebuild
// its size accounting from an existing spill directory.
type FileInfo struct {
	Name    string
	Size    int64
	ModTime time.Time
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string) error               { return os.MkdirAll(path, 0o755) }
func (OSFS) WriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func (OSFS) Rename(oldPath, newPath string) error     { return os.Rename(oldPath, newPath) }
func (OSFS) ReadFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func (OSFS) Remove(path string) error                 { return os.Remove(path) }
func (o OSFS) ReadDir(path string) ([]FileInfo, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	out := make([]FileInfo, 0, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent remove
		}
		out = append(out, FileInfo{Name: e.Name(), Size: info.Size(), ModTime: info.ModTime()})
	}
	return out, nil
}

const (
	snapExt = ".snap"
	tmpExt  = ".tmp"

	// putAttempts and retryDelay govern the write retry loop. Three
	// attempts with a short linear backoff ride out transient errors
	// (EINTR-ish hiccups, a racing cleanup) without stalling eviction
	// behind a genuinely dead disk for long.
	putAttempts = 3
	retryDelay  = 10 * time.Millisecond
)

// Store persists session snapshots in one directory.
type Store struct {
	dir      string
	fs       FS
	maxBytes int64 // 0 = unbounded

	// sleep is swapped out by tests to avoid real backoff delays.
	sleep func(time.Duration)

	mu    sync.Mutex
	sizes map[string]int64 // id -> snapshot file size
	order []string         // ids, oldest write first (eviction order)
}

// OpenStore opens (creating if needed) a spill directory and rebuilds
// size accounting from any snapshots already present, oldest first —
// restarting a replica keeps its spilled sessions restorable.
func OpenStore(dir string, maxBytes int64, fs FS) (*Store, error) {
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("snapshot: create spill dir: %w", err)
	}
	st := &Store{
		dir:      dir,
		fs:       fs,
		maxBytes: maxBytes,
		sleep:    time.Sleep,
		sizes:    make(map[string]int64),
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: scan spill dir: %w", err)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ModTime.Before(ents[j].ModTime) })
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name, tmpExt):
			// Leftover from a crash mid-spill; the rename never
			// happened, so the previous state (if any) is authoritative.
			_ = fs.Remove(filepath.Join(dir, e.Name))
		case strings.HasSuffix(e.Name, snapExt):
			id := strings.TrimSuffix(e.Name, snapExt)
			st.sizes[id] = e.Size
			st.order = append(st.order, id)
		}
	}
	st.enforceCapLocked()
	return st, nil
}

// SetSleep replaces the retry backoff sleeper; tests use it to run
// the retry path without real delays.
func (st *Store) SetSleep(f func(time.Duration)) { st.sleep = f }

// path maps a session id onto its snapshot file. Ids are
// server-generated ("sim-17"), but sanitize anyway so a hostile id
// can never escape the spill directory.
func (st *Store) path(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return "", fmt.Errorf("%w (invalid id %q)", ErrNotFound, id)
	}
	return filepath.Join(st.dir, id+snapExt), nil
}

// Put durably stores a snapshot under id, replacing any previous one.
// The write lands in a temp file first and is renamed into place, so
// readers and crashes only ever observe complete envelopes. Transient
// failures are retried with backoff; the error returned is the last
// attempt's.
func (st *Store) Put(id string, data []byte) error {
	dst, err := st.path(id)
	if err != nil {
		return err
	}
	tmp := dst + tmpExt
	for attempt := 1; ; attempt++ {
		err = st.fs.WriteFile(tmp, data)
		if err == nil {
			err = st.fs.Rename(tmp, dst)
		}
		if err == nil {
			break
		}
		_ = st.fs.Remove(tmp)
		if attempt >= putAttempts {
			return fmt.Errorf("snapshot: spill %s after %d attempts: %w", id, attempt, err)
		}
		st.sleep(time.Duration(attempt) * retryDelay)
	}
	st.mu.Lock()
	if _, ok := st.sizes[id]; ok {
		st.removeFromOrderLocked(id)
	}
	st.sizes[id] = int64(len(data))
	st.order = append(st.order, id)
	st.enforceCapLocked()
	st.mu.Unlock()
	return nil
}

// Get returns the stored snapshot for id, or ErrNotFound.
func (st *Store) Get(id string) ([]byte, error) {
	p, err := st.path(id)
	if err != nil {
		return nil, err
	}
	data, err := st.fs.ReadFile(p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w (%s)", ErrNotFound, id)
		}
		return nil, fmt.Errorf("snapshot: read %s: %w", id, err)
	}
	return data, nil
}

// Delete removes id's snapshot; deleting an absent id is not an error.
func (st *Store) Delete(id string) error {
	p, err := st.path(id)
	if err != nil {
		return nil
	}
	err = st.fs.Remove(p)
	st.mu.Lock()
	if _, ok := st.sizes[id]; ok {
		delete(st.sizes, id)
		st.removeFromOrderLocked(id)
	}
	st.mu.Unlock()
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("snapshot: delete %s: %w", id, err)
	}
	return nil
}

// ProbeWritable checks that the spill directory still accepts writes
// by creating and removing a small probe file through the store's FS.
// Health endpoints use it to turn "the disk went read-only under us"
// into a readiness failure before the next real spill discovers it.
func (st *Store) ProbeWritable() error {
	p := filepath.Join(st.dir, ".probe"+tmpExt)
	if err := st.fs.WriteFile(p, []byte("probe")); err != nil {
		return fmt.Errorf("snapshot: spill dir not writable: %w", err)
	}
	if err := st.fs.Remove(p); err != nil {
		return fmt.Errorf("snapshot: spill dir probe cleanup: %w", err)
	}
	return nil
}

// Dir reports the directory the store spills into.
func (st *Store) Dir() string { return st.dir }

// Len reports the number of stored snapshots.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sizes)
}

// IDs lists the ids of the stored snapshots, oldest write first.
func (st *Store) IDs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.order...)
}

// Bytes reports the total stored snapshot size.
func (st *Store) Bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytesLocked()
}

func (st *Store) bytesLocked() int64 {
	var n int64
	for _, s := range st.sizes {
		n += s
	}
	return n
}

func (st *Store) removeFromOrderLocked(id string) {
	for i, o := range st.order {
		if o == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			return
		}
	}
}

// enforceCapLocked evicts oldest-written snapshots until the store
// fits its byte cap. Best-effort: a failing Remove still drops the
// accounting entry, since the file may or may not remain.
func (st *Store) enforceCapLocked() {
	if st.maxBytes <= 0 {
		return
	}
	for st.bytesLocked() > st.maxBytes && len(st.order) > 0 {
		id := st.order[0]
		st.order = st.order[1:]
		delete(st.sizes, id)
		if p, err := st.path(id); err == nil {
			_ = st.fs.Remove(p)
		}
	}
}

// Package store is the durable half of the fleet: a content-addressed
// on-disk snapshot store plus a session manifest, so a doradod restart
// does not lose the parked fleet.
//
// Layout under the root directory:
//
//	recipes/<sha256-hex>       one snapshot: its header, its sections under
//	                           4 KiB inline, and the names of the others
//	sections/<sha256-hex>      one section body of 4 KiB or more, shared by
//	                           every recipe that names it (see section.go)
//	blobs/<sha256-hex>.json    the session Spec that produced the snapshot
//	manifest.json              session id → {spec, snapshot hash, cycle, view}
//
// Everything is content-addressed. A snapshot's address is the SHA-256 of
// the complete document, and its recipe is filed under that name; each
// shared section is filed under the hash of its own body, so identical
// large sections share storage across snapshots, a file on disk is
// immutable, and a reader verifies integrity by rehashing (Get rehashes
// every reassembly). A park of a booted Mesa session writes two payload
// files, the recipe and the storage pages; the microstore is shared.
// The spec sidecar makes a snapshot self-describing — fork-from-hash
// rebuilds a machine from the sidecar Spec and restores the bytes onto it
// without consulting any session.
//
// The store also manages its own lifecycle: Sweep (gc.go) reclaims
// snapshots unreachable from the manifest once they age past a policy
// threshold, with Pin protecting in-flight readers (a fork between its
// Meta read and its Get, a park between its snapshot write and its
// manifest entry).
//
// Every write is crash-safe by construction (WriteFileAtomic): encode
// into a temporary file in the destination directory, fsync, rename over
// the final name, then fsync the directory so the rename itself is
// durable. A reader (or a process killed mid-park) sees either the old
// document or the new one, never a torn one. Ordering makes the manifest
// trustworthy: shared sections, then the recipe, then the sidecar are
// durable before the manifest names the snapshot, so every hash a
// manifest references exists. The in-memory manifest changes only once
// its new version is on disk, so a failed write (a full disk) leaves
// memory and disk agreeing, and Sweep, which takes its roots from memory,
// never reclaims a snapshot the disk still names. The worst a crash
// leaves behind is an unreferenced snapshot, which is harmless garbage,
// and the temporary file of the write it killed, which the next Open
// deletes.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoBlob reports a Get or Meta for a hash the store does not hold.
var ErrNoBlob = errors.New("store: no such snapshot")

// manifestVersion is the manifest schema generation, and Open reads only
// this one. Version 2 is the sectioned layout; a version-1 manifest comes
// from a store that kept snapshots as whole blobs, which this build cannot
// read, so Open refuses it like any other version instead of adopting
// sessions that could never revive.
const manifestVersion = 2

// Entry is one parked session in the manifest: everything a fresh
// Manager needs to re-list the session and lazily revive it.
type Entry struct {
	// ID is the session id ("s1", "s2", ...).
	ID string `json:"id"`
	// Seq is the session's creation sequence number; a restarted manager
	// resumes its id counter past the highest Seq so new sessions never
	// collide with restored ones.
	Seq uint64 `json:"seq"`
	// Spec is the session's fleet Spec, JSON-encoded by the fleet layer
	// (the store does not depend on the fleet package).
	Spec json.RawMessage `json:"spec"`
	// Hash is the parked snapshot's content address.
	Hash string `json:"hash"`
	// Cycle is the machine's cycle counter at park time, so listings show
	// progress without touching the snapshot.
	Cycle uint64 `json:"cycle"`
	// View is the session's published counters at park time, JSON-encoded
	// by the fleet layer and kept verbatim like Spec, so an adopted session
	// lists what it parked. Entries written before it existed have none.
	View json.RawMessage `json:"view,omitempty"`
	// ParkedAt stamps when the snapshot was written.
	ParkedAt time.Time `json:"parked_at"`
}

// manifest is the on-disk session index.
type manifest struct {
	Version  int              `json:"version"`
	Sessions map[string]Entry `json:"sessions"`
}

// Store is a content-addressed snapshot store rooted at one directory.
// It is safe for concurrent use; snapshot reads take no lock at all
// (sections and recipes are immutable once renamed into place).
type Store struct {
	dir string

	mu   sync.Mutex // guards manifest mutation/rewrite, pins, and Sweep
	m    manifest
	pins map[string]int // hash → refcount; Sweep treats pinned as reachable

	// dedupe and gc are the process-lifetime observability counters
	// behind Stats (section.go) and the dorado_store_* metric families.
	dedupe struct {
		sections atomic.Uint64 // sections PutSnapshot did not rewrite
		bytes    atomic.Uint64 // bytes those sections would have taken
	}
	gc struct {
		runs  atomic.Uint64 // completed Sweep passes
		bytes atomic.Uint64 // bytes Sweep has deleted
	}
}

// Open creates (or reopens) a store rooted at dir, loading the manifest
// if one exists. It first deletes the temporary files of writes that
// were killed before their rename: no writer of this process runs yet,
// and a store belongs to one process, so every such file is an orphan.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{".", "blobs", "sections", "recipes"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := removeTemps(filepath.Join(dir, sub)); err != nil {
			return nil, fmt.Errorf("store: removing a killed write's temporary file: %w", err)
		}
	}
	s := &Store{dir: dir, m: manifest{Version: manifestVersion, Sessions: map[string]Entry{}}, pins: map[string]int{}}
	data, err := os.ReadFile(s.manifestPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("store: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d, this build reads version %d", m.Version, manifestVersion)
	}
	if m.Sessions == nil {
		m.Sessions = map[string]Entry{}
	}
	s.m = m
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }

func (s *Store) metaPath(hash string) string { return filepath.Join(s.dir, "blobs", hash+".json") }

// Hash returns the store's content address for data: lowercase SHA-256
// hex, the name a snapshot is filed and fetched under.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validHash guards file-name construction: exactly 64 lowercase hex
// characters, so a wire-supplied hash can never escape the store
// directory.
func validHash(hash string) bool {
	if len(hash) != 64 {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get reads the snapshot for hash, reassembled from its recipe, and
// verifies that the bytes hash to their name (on-disk corruption fails
// loudly instead of restoring garbage).
func (s *Store) Get(hash string) ([]byte, error) {
	if !validHash(hash) {
		return nil, fmt.Errorf("%w: malformed hash %q", ErrNoBlob, hash)
	}
	data, err := s.assemble(hash)
	// A missing file with no recipe left is a miss, not corruption: the
	// snapshot was never stored, or a sweep reclaimed it mid-read (its
	// sections go after its recipe), which an unpinned reader must see as
	// ErrNoBlob rather than as a failure.
	if errors.Is(err, os.ErrNotExist) && !s.Has(hash) {
		return nil, fmt.Errorf("%w: %s", ErrNoBlob, hash)
	}
	return data, err
}

// Has reports whether the store holds a snapshot for hash.
func (s *Store) Has(hash string) bool {
	if !validHash(hash) {
		return false
	}
	_, err := os.Stat(s.recipePath(hash))
	return err == nil
}

// PutMeta attaches JSON metadata (the fleet's session Spec) to a snapshot
// as its sidecar document, making the snapshot self-describing for
// fork-from-hash. Call it after PutSnapshot; it is idempotent in effect
// (last write wins, and all writers for one hash carry equivalent specs).
func (s *Store) PutMeta(hash string, meta json.RawMessage) error {
	if !validHash(hash) {
		return fmt.Errorf("%w: malformed hash %q", ErrNoBlob, hash)
	}
	if err := WriteFileAtomic(s.metaPath(hash), meta); err != nil {
		return fmt.Errorf("store: writing snapshot meta: %w", err)
	}
	return nil
}

// Meta reads the sidecar metadata stored with PutMeta.
func (s *Store) Meta(hash string) (json.RawMessage, error) {
	if !validHash(hash) {
		return nil, fmt.Errorf("%w: malformed hash %q", ErrNoBlob, hash)
	}
	data, err := os.ReadFile(s.metaPath(hash))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: no metadata for %s", ErrNoBlob, hash)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// SaveSession records (or replaces) a session's manifest entry and
// rewrites the manifest atomically. The caller must have made the entry's
// snapshot durable first (PutSnapshot + PutMeta), so a manifest never
// references a missing hash. On failure the manifest is unchanged.
func (s *Store) SaveSession(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := maps.Clone(s.m.Sessions)
	sessions[e.ID] = e
	return s.installLocked(sessions)
}

// DeleteSession removes a session's manifest entry. The snapshot stays:
// it is content-addressed and may seed forks. Deleting an absent id is a
// no-op. On failure the entry stays, in memory as on disk.
func (s *Store) DeleteSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m.Sessions[id]; !ok {
		return nil
	}
	sessions := maps.Clone(s.m.Sessions)
	delete(sessions, id)
	return s.installLocked(sessions)
}

// Sessions lists every manifest entry in creation (Seq) order.
func (s *Store) Sessions() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.m.Sessions))
	for _, e := range s.m.Sessions {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// installLocked writes a manifest holding sessions and, once it is on
// disk, makes it the store's. Caller holds s.mu. The manifest is written
// compact: indenting would put every element of each entry's View arrays
// on a line of its own, more than doubling the bytes every park encodes.
func (s *Store) installLocked(sessions map[string]Entry) error {
	m := manifest{Version: manifestVersion, Sessions: sessions}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := WriteFileAtomic(s.manifestPath(), append(data, '\n')); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	s.m = m
	return nil
}

// WriteFileAtomic writes data to path so that a reader, or a process
// killed mid-write, sees the old file or the new one, never a torn one,
// and a crash after it returns keeps the new one: a temporary file in the
// destination directory, fsync, rename, then syncDir so the new name is
// as durable as the bytes behind it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}

// isTemp reports whether name is one of WriteFileAtomic's temporary
// files, <final name>.tmp<random digits>. No stored file's name holds
// ".tmp": they are hashes, <hash>.json and manifest.json.
func isTemp(name string) bool { return strings.Contains(name, ".tmp") }

// removeTemps deletes every WriteFileAtomic temporary file in dir.
func removeTemps(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() && isTemp(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// syncDir fsyncs a directory, making the renames inside it durable:
// without it a crash can lose a file whose name the manifest already
// depends on. It is a variable so tests can observe or fail it.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

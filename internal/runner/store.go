package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"resizecache/internal/payload"
	"resizecache/internal/sim"
)

// Store is the pluggable persistent backend of a Runner: it holds
// per-config simulation outcomes keyed by sim.Config fingerprints and
// sweep-level artifacts (opaque serialized payloads, see Runner.Artifact)
// keyed by artifact fingerprints. The JSON DiskStore is the in-tree
// implementation; a network or sharded store for cross-machine sweeps
// implements the same five methods.
//
// Implementations must be safe for concurrent use. Lookup misses are
// not errors; a backend that cannot distinguish "absent" from "failed"
// should report failures as misses so the runner falls back to
// simulating.
type Store interface {
	// Lookup returns the stored outcome for a config fingerprint.
	Lookup(k sim.Key) (StoredResult, bool)
	// Record persists one completed outcome. The runner never records
	// cancellations — only results and real simulation errors.
	Record(k sim.Key, v StoredResult)
	// LookupArtifact returns the stored payload for an artifact
	// fingerprint. Callers must treat the returned bytes as read-only.
	LookupArtifact(k sim.Key) ([]byte, bool)
	// RecordArtifact persists one artifact payload. Payloads must be
	// valid JSON: backends may embed them verbatim in JSON documents,
	// and may drop payloads that are not.
	RecordArtifact(k sim.Key, data []byte)
	// Flush writes buffered mutations to the backing medium.
	Flush() error
}

// RemoteCounter is implemented by Store backends that talk to a remote
// tier (NetStore); Runner.Stats folds the counts into its
// RemoteHits/RemoteErrors fields so -stats output distinguishes local
// memo hits from network store traffic.
type RemoteCounter interface {
	// RemoteCounts returns the backend's cumulative successful remote
	// hits and failed round trips.
	RemoteCounts() (hits, errors uint64)
}

// BreakerCounter is implemented by Store backends that guard a remote
// tier with a circuit breaker (NetStore); Runner.Stats folds the count
// into its BreakerTrips field so degraded runs are visible in -stats
// output.
type BreakerCounter interface {
	// BreakerTrips returns how many times the backend's breaker opened.
	BreakerTrips() uint64
}

// StoredResult is one persisted simulation outcome: either a successful
// result or the message of the real (non-cancellation) error the
// simulation failed with. Persisting errors keeps a failing config from
// being re-simulated on every resume just to fail again.
type StoredResult struct {
	Result sim.Result `json:"result"`
	// Err, when non-empty, records that the simulation failed; the
	// runner replays it as a StoredError instead of re-running.
	Err string `json:"err,omitempty"`
}

// MarshalBinary returns s's wire payload: sim.Result's binary layout
// followed by Err, sealed as a JSON string of base64 (see
// internal/payload), so it travels inside a JSON frame. DiskStore keeps
// its own JSON form; only the simd wire carries this one, and a layout
// change bumps wire.ProtocolVersion.
func (s StoredResult) MarshalBinary() ([]byte, error) {
	var w payload.Writer
	s.Result.AppendPayload(&w)
	w.Str(s.Err)
	return w.Seal(), nil
}

// UnmarshalBinary decodes a payload MarshalBinary sealed into s. A
// malformed payload leaves s unchanged.
func (s *StoredResult) UnmarshalBinary(data []byte) error {
	var v StoredResult
	rd := payload.Open(data)
	v.Result.ReadPayload(&rd)
	v.Err = rd.Str()
	if err := rd.Done(); err != nil {
		return fmt.Errorf("runner: stored result: %w", err)
	}
	*s = v
	return nil
}

// StoredError is a persisted simulation failure replayed from a Store
// without re-executing the simulation.
type StoredError struct{ Msg string }

func (e *StoredError) Error() string { return "stored failure: " + e.Msg }

// storeVersion tags the on-disk JSON schema; results written by a
// different version (or a different sim.Key encoding, which changes the
// map keys) are discarded on load rather than misapplied.
// Version history: 1 = results only; 2 = StoredResult entries (error
// persistence) + artifacts section.
const storeVersion = 2

// diskFile is the JSON document persisted by a DiskStore.
type diskFile struct {
	Version   int                        `json:"version"`
	Results   map[string]StoredResult    `json:"results"`
	Artifacts map[string]json.RawMessage `json:"artifacts,omitempty"`
}

// DiskStore is the JSON-file Store implementation: one document mapping
// hex fingerprints to outcomes and artifacts. It lets long multi-process
// workflows (cmd/figures regenerating figure after figure) resume
// without re-simulating configs — or re-deriving sweep winners —
// completed by earlier runs.
//
// All methods are safe for concurrent use. Mutations accumulate in
// memory; Flush writes the file atomically (temp file + rename).
type DiskStore struct {
	path string

	mu        sync.Mutex
	results   map[string]StoredResult
	artifacts map[string]json.RawMessage
	dirty     bool
}

var _ Store = (*DiskStore)(nil)

// OpenDiskStore loads the store at path, or creates an empty one if the
// file does not exist yet. A file with a mismatched schema version is
// treated as empty (it will be overwritten on Flush); a file that does
// not parse at all is an error, so a corrupted store is surfaced rather
// than silently discarded.
func OpenDiskStore(path string) (*DiskStore, error) {
	s := &DiskStore{
		path:      path,
		results:   make(map[string]StoredResult),
		artifacts: make(map[string]json.RawMessage),
	}
	file, err := os.Open(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: open store %s: %w", path, err)
	}
	defer file.Close()
	f, err := readDiskFile(bufio.NewReader(file))
	if err != nil {
		return nil, fmt.Errorf("runner: parse store %s: %w", path, err)
	}
	if f.Version == storeVersion {
		if f.Results != nil {
			s.results = f.Results
		}
		if f.Artifacts != nil {
			s.artifacts = f.Artifacts
		}
	}
	return s, nil
}

// readDiskFile decodes a diskFile document one entry at a time, so a
// load never holds the whole file, or a buffer the size of it, in
// memory. Unknown fields are skipped, as json.Unmarshal skips them.
func readDiskFile(r io.Reader) (f diskFile, err error) {
	dec := json.NewDecoder(r)
	err = readObject(dec, func(name string) error {
		var err error
		switch name {
		case "version":
			err = dec.Decode(&f.Version)
		case "results":
			f.Results, err = readEntries[StoredResult](dec)
		case "artifacts":
			f.Artifacts, err = readEntries[json.RawMessage](dec)
		default:
			err = dec.Decode(new(json.RawMessage))
		}
		return err
	})
	if _, end := dec.Token(); err == nil && end != io.EOF {
		err = fmt.Errorf("data after the store document")
	}
	return f, err
}

// readEntries decodes one section of a diskFile, entry by entry.
func readEntries[V any](dec *json.Decoder) (map[string]V, error) {
	m := make(map[string]V)
	return m, readObject(dec, func(k string) error {
		var v V
		err := dec.Decode(&v)
		m[k] = v
		return err
	})
}

// readObject reads one JSON object from dec, calling member to decode
// the value of each member it names.
func readObject(dec *json.Decoder, member func(name string) error) error {
	open, err := dec.Token()
	if err != nil {
		return err
	}
	if open != json.Delim('{') {
		return fmt.Errorf("store holds %v where an object belongs", open)
	}
	for dec.More() {
		name, err := dec.Token()
		if err == nil {
			err = member(name.(string))
		}
		if err != nil {
			return err
		}
	}
	_, err = dec.Token()
	return err
}

// Len returns the number of stored results.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// ArtifactLen returns the number of stored artifacts.
func (s *DiskStore) ArtifactLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.artifacts)
}

// Path returns the backing file path.
func (s *DiskStore) Path() string { return s.path }

// Lookup implements Store.
func (s *DiskStore) Lookup(k sim.Key) (StoredResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[k.String()]
	return res, ok
}

// Record implements Store.
func (s *DiskStore) Record(k sim.Key, v StoredResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[k.String()] = v
	s.dirty = true
}

// LookupArtifact implements Store.
func (s *DiskStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.artifacts[k.String()]
	return data, ok
}

// RecordArtifact implements Store. Payloads embed verbatim in the JSON
// document, so a payload that is not itself valid JSON is dropped here
// (it stays a cache miss) rather than poisoning Flush for the whole
// store.
func (s *DiskStore) RecordArtifact(k sim.Key, data []byte) {
	if !json.Valid(data) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Copy: json.RawMessage aliases the caller's buffer otherwise.
	s.artifacts[k.String()] = append(json.RawMessage(nil), data...)
	s.dirty = true
}

// Flush writes the store to disk if it changed since the last Flush.
// The new contents reach stable storage before the rename publishes
// them, and the rename itself is synced through the directory, so after
// a crash the file holds either the old store or the new one, never a
// truncated mix.
func (s *DiskStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return nil
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("runner: flush store: %w", err)
	}
	err = s.writeDiskFile(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: flush store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: flush store: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("runner: flush store: %w", err)
	}
	s.dirty = false
	return nil
}

// writeDiskFile writes the store as the bytes json.Marshal gives its
// diskFile, one entry at a time, so a flush never holds the whole
// document, or a buffer the size of it, in memory.
func (s *DiskStore) writeDiskFile(out io.Writer) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, `{"version":%d,"results":`, storeVersion)
	err := writeEntries(w, s.results)
	if err == nil && len(s.artifacts) > 0 {
		w.WriteString(`,"artifacts":`)
		err = writeEntries(w, s.artifacts)
	}
	if err != nil {
		return fmt.Errorf("runner: encode store: %w", err)
	}
	w.WriteByte('}')
	return w.Flush()
}

// writeEntries writes m as a JSON object in sorted key order, as
// json.Marshal does.
func writeEntries[V any](w *bufio.Writer, m map[string]V) error {
	w.WriteByte('{')
	for i, k := range slices.Sorted(maps.Keys(m)) {
		key, _ := json.Marshal(k) // a string always marshals
		v, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(key)
		w.WriteByte(':')
		w.Write(v)
	}
	return w.WriteByte('}')
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
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

// MemStore is an in-process Store: the smallest backend the interface
// admits. It backs tests, and is the template for network or sharded
// implementations — every method is a straight key-value operation with
// no runner-visible semantics beyond the Store contract.
type MemStore struct {
	mu        sync.Mutex
	results   map[sim.Key]StoredResult
	artifacts map[sim.Key][]byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{
		results:   make(map[sim.Key]StoredResult),
		artifacts: make(map[sim.Key][]byte),
	}
}

// Lookup implements Store.
func (s *MemStore) Lookup(k sim.Key) (StoredResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.results[k]
	return v, ok
}

// Record implements Store.
func (s *MemStore) Record(k sim.Key, v StoredResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[k] = v
}

// LookupArtifact implements Store.
func (s *MemStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.artifacts[k]
	return data, ok
}

// RecordArtifact implements Store. Like DiskStore, non-JSON payloads
// are dropped (they stay cache misses): the reference in-memory backend
// models the strictest contract a backend may apply, so code that works
// against a MemStore works against every store.
func (s *MemStore) RecordArtifact(k sim.Key, data []byte) {
	if !json.Valid(data) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.artifacts[k] = append([]byte(nil), data...)
}

// Flush implements Store; a MemStore has nothing to persist.
func (s *MemStore) Flush() error { return nil }

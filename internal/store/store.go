// Package store is a dependency-free, crash-safe durable key→value store:
// the persistence layer under the sizing service's result corpus. Records
// are arbitrary JSON values under string keys, held fully in memory and
// made durable by two stdlib-only mechanisms:
//
//   - an append-only NDJSON journal (journal.ndjson): every Put appends
//     one {"key":…,"value":…} line and fsyncs, so an acknowledged write
//     survives a SIGKILL at any later instant;
//   - checkpoints (checkpoint.ndjson): the full record set rewritten
//     through a temp file + fsync + atomic rename, after which the journal
//     restarts empty. A crash between the journal append and the
//     checkpoint rename loses nothing — boot loads the checkpoint, then
//     replays the journal over it, and either the old checkpoint + full
//     journal or the new checkpoint + empty journal is on disk, never
//     neither.
//
// A torn final journal line (the process died mid-append, before the
// write was acknowledged) is detected and dropped on open; every earlier
// line is by construction complete. Keys are ordered by first insertion,
// and that order survives restarts — callers that replay records in Keys
// order (the service's cache reload) reconstruct their in-memory state
// deterministically.
//
// The store is not a database: no transactions, no deletes, no secondary
// indexes, and the whole record set lives in memory. It is exactly the
// "growing (circuit, bounds) → (sizes, multipliers) corpus" the learned
// warm-start direction needs — append-mostly, replayed at boot, compact
// on demand.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fault"
)

const (
	journalName    = "journal.ndjson"
	checkpointName = "checkpoint.ndjson"
)

// DefaultCompactEvery is the journal length (in appended lines) beyond
// which Put triggers an automatic checkpoint, bounding both replay time at
// boot and journal growth from overwritten keys.
const DefaultCompactEvery = 4096

// Options configures Open. The zero value is ready to use.
type Options struct {
	// CompactEvery is the automatic-checkpoint threshold in journal lines;
	// 0 selects DefaultCompactEvery, negative disables auto-compaction
	// (Checkpoint can still be called explicitly).
	CompactEvery int
	// NoSync skips the per-append fsync. Appends then survive process
	// death (the OS holds the page cache) but not power loss; the tests
	// use it to keep tight loops fast.
	NoSync bool
	// FS is the filesystem the store writes through; nil selects the real
	// one. The chaos tests hand in a fault-injecting FS to fail appends,
	// fsyncs, and checkpoint renames on a deterministic schedule.
	FS fault.FS
}

// record is one journal/checkpoint line.
type record struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Store is the durable store over one data directory. Safe for concurrent
// use; create with Open.
type Store struct {
	mu      sync.Mutex
	opt     Options
	fs      fault.FS
	dir     string
	journal fault.File
	values  map[string]json.RawMessage
	order   []string // first-insertion order, stable across restarts
	lines   int      // journal lines since the last checkpoint
	goodOff int64    // byte offset of the end of the last acknowledged line
	dirty   bool     // a failed append could not be rolled back yet
	closed  bool
}

// Open loads (or creates) the store under dir: checkpoint first, then the
// journal replayed over it. A torn final journal line — a crash mid-append
// — is dropped and the journal truncated back to its last complete line.
func Open(dir string, opt Options) (*Store, error) {
	if opt.CompactEvery == 0 {
		opt.CompactEvery = DefaultCompactEvery
	}
	fs := opt.FS
	if fs == nil {
		fs = fault.OS()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{opt: opt, fs: fs, dir: dir, values: map[string]json.RawMessage{}}
	if err := s.loadFile(filepath.Join(dir, checkpointName), false); err != nil {
		return nil, err
	}
	goodBytes, err := s.loadJournal()
	if err != nil {
		return nil, err
	}
	j, err := fs.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Drop the torn tail, if any, and position appends after the last
	// complete line.
	if err := j.Truncate(goodBytes); err != nil {
		j.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := j.Seek(goodBytes, 0); err != nil {
		j.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.journal = j
	s.goodOff = goodBytes
	return s, nil
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// loadFile replays one NDJSON file into the in-memory map. With tolerant
// set, a final unparseable line is ignored (journal torn-tail semantics);
// otherwise any bad line is an error (a checkpoint is written atomically
// and must be wholly valid).
func (s *Store) loadFile(path string, tolerant bool) error {
	f, err := s.fs.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	_, err = s.replay(f, tolerant, path)
	return err
}

// loadJournal replays the journal and returns the byte offset of the end
// of its last complete line.
func (s *Store) loadJournal() (int64, error) {
	f, err := s.fs.Open(s.journalPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return s.replay(f, true, s.journalPath())
}

// replay applies NDJSON records from r, counting replayed lines into
// s.lines when reading the journal, and returns the byte offset just past
// the last complete, valid line.
func (s *Store) replay(f io.Reader, tolerant bool, path string) (int64, error) {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // results can be large (X per node)
	var good int64
	journal := filepath.Base(path) == journalName
	for sc.Scan() {
		line := sc.Bytes()
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			if tolerant {
				// A torn append: the process died mid-write. Only the final
				// line can be incomplete; stop here and truncate to good.
				return good, nil
			}
			return good, fmt.Errorf("store: corrupt record in %s: %v", path, err)
		}
		s.putMem(rec.Key, rec.Value)
		good += int64(len(line)) + 1
		if journal {
			s.lines++
		}
	}
	if err := sc.Err(); err != nil {
		if tolerant {
			return good, nil // an over-long torn tail reads as a scan error
		}
		return good, fmt.Errorf("store: reading %s: %w", path, err)
	}
	return good, nil
}

// putMem stores a value in the in-memory map, preserving first-insertion
// order across overwrites.
func (s *Store) putMem(key string, value json.RawMessage) {
	if _, ok := s.values[key]; !ok {
		s.order = append(s.order, key)
	}
	s.values[key] = append(json.RawMessage(nil), value...)
}

// ErrUnencodable marks a Put whose value JSON cannot represent (a NaN or
// ±Inf float, say). Nothing was written: the value is at fault, not the
// disk.
var ErrUnencodable = errors.New("value is not JSON-encodable")

// Put durably stores value (marshalled to JSON) under key, overwriting any
// previous value. The append is fsynced before Put returns (unless
// Options.NoSync), so an acknowledged Put survives SIGKILL. A value JSON
// cannot encode fails with an error wrapping ErrUnencodable.
func (s *Store) Put(key string, value any) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	data, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("store: marshal %q: %w: %w", key, ErrUnencodable, err)
	}
	line, err := json.Marshal(record{Key: key, Value: data})
	if err != nil {
		return fmt.Errorf("store: marshal %q: %w", key, err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.dirty {
		// A previous failed append could not be rolled back; appending after
		// its partial bytes would corrupt a mid-journal line, so retry the
		// rollback before accepting new writes.
		if err := s.rollbackLocked(); err != nil {
			return fmt.Errorf("store: journal dirty after failed append: %w", err)
		}
	}
	if _, err := s.journal.Write(line); err != nil {
		// The append may have landed partially (a torn line). Truncate back
		// to the last acknowledged byte so the journal stays a sequence of
		// complete lines; on rollback failure the dirty flag blocks further
		// appends until it succeeds.
		s.rollbackLocked() //nolint:errcheck // best-effort; dirty flag records failure
		return fmt.Errorf("store: append %q: %w", key, err)
	}
	if !s.opt.NoSync {
		if err := s.journal.Sync(); err != nil {
			// The line is complete on the page cache but not durable, and the
			// caller will treat this Put as failed — drop it so memory and the
			// acknowledged journal stay in step.
			s.rollbackLocked() //nolint:errcheck
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	s.putMem(key, data)
	s.goodOff += int64(len(line))
	s.lines++
	if s.opt.CompactEvery > 0 && s.lines >= s.opt.CompactEvery {
		return s.checkpointLocked()
	}
	return nil
}

// rollbackLocked truncates the journal back to the end of the last
// acknowledged line, discarding any partial append, and repositions the
// write offset there. On failure the store is marked dirty: Put refuses
// new appends (retrying the rollback first) until the truncate lands.
func (s *Store) rollbackLocked() error {
	if err := s.journal.Truncate(s.goodOff); err != nil {
		s.dirty = true
		return err
	}
	if _, err := s.journal.Seek(s.goodOff, 0); err != nil {
		s.dirty = true
		return err
	}
	s.dirty = false
	return nil
}

// Get unmarshals the value stored under key into out and reports whether
// the key exists.
func (s *Store) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	raw, ok := s.values[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return true, fmt.Errorf("store: unmarshal %q: %w", key, err)
	}
	return true, nil
}

// GetRaw returns the stored JSON bytes for key (a copy), or nil.
func (s *Store) GetRaw(key string) json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.values[key]
	if !ok {
		return nil
	}
	return append(json.RawMessage(nil), raw...)
}

// Has reports whether key exists.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.values[key]
	return ok
}

// Keys returns every key with the given prefix, in first-insertion order
// (which is stable across restarts).
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, k := range s.order {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	return out
}

// Len returns the number of distinct keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.values)
}

// Checkpoint rewrites the full record set atomically (temp file, fsync,
// rename) and restarts the journal empty. Crash-safe at every instant:
// until the rename lands, boot sees the old checkpoint plus the full
// journal; after it, the new checkpoint plus whatever was appended since.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	tmp, err := s.fs.CreateTemp(s.dir, checkpointName+".tmp-")
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	defer s.fs.Remove(tmp.Name()) //nolint:errcheck // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	enc := json.NewEncoder(bw)
	for _, k := range s.order {
		if err := enc.Encode(record{Key: k, Value: s.values[k]}); err != nil {
			tmp.Close()
			return fmt.Errorf("store: checkpoint: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), filepath.Join(s.dir, checkpointName)); err != nil {
		// The old checkpoint plus the full journal is still on disk — a
		// failed rename loses nothing, it only postpones compaction.
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	// The checkpoint holds everything: restart the journal empty. Truncate
	// keeps the same inode, so the open handle stays valid. If the truncate
	// fails, the journal's lines are all covered by the new checkpoint, so
	// replay stays consistent; appends continue after them.
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if _, err := s.journal.Seek(0, 0); err != nil {
		s.dirty = true // write offset unknown; block appends until rolled back
		s.goodOff = 0
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	s.lines = 0
	s.goodOff = 0
	return nil
}

// Close releases the journal handle. Further Puts fail; Gets keep working
// from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.journal.Close()
}

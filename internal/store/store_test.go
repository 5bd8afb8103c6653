package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func open(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t *testing.T, s *Store, key string, v any) {
	t.Helper()
	if err := s.Put(key, v); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func get(t *testing.T, s *Store, key string) rec {
	t.Helper()
	var out rec
	ok, err := s.Get(key, &out)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%s): missing", key)
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	put(t, s, "a", rec{N: 1, S: "one"})
	put(t, s, "b", rec{N: 2, S: "two"})
	if got := get(t, s, "a"); got != (rec{N: 1, S: "one"}) {
		t.Fatalf("a = %+v", got)
	}
	if got := get(t, s, "b"); got != (rec{N: 2, S: "two"}) {
		t.Fatalf("b = %+v", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	var out rec
	if ok, err := s.Get("missing", &out); ok || err != nil {
		t.Fatalf("Get(missing) = %v, %v", ok, err)
	}
	if s.Has("a") != true || s.Has("zz") != false {
		t.Fatal("Has mismatch")
	}
	if raw := s.GetRaw("a"); raw == nil {
		t.Fatal("GetRaw(a) = nil")
	}
	if raw := s.GetRaw("zz"); raw != nil {
		t.Fatalf("GetRaw(zz) = %s", raw)
	}
	if err := s.Put("", rec{}); err == nil {
		t.Fatal("Put(empty key) succeeded")
	}
	if err := s.Put("fn", func() {}); err == nil {
		t.Fatal("Put(unmarshalable) succeeded")
	}
}

func TestReopenReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	put(t, s, "a", rec{N: 1})
	put(t, s, "b", rec{N: 2})
	put(t, s, "a", rec{N: 3}) // overwrite
	s.Close()

	s2 := open(t, dir, Options{})
	if got := get(t, s2, "a"); got.N != 3 {
		t.Fatalf("a.N = %d, want 3", got.N)
	}
	if got := get(t, s2, "b"); got.N != 2 {
		t.Fatalf("b.N = %d, want 2", got.N)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
}

func TestKeysPrefixAndInsertionOrderSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	put(t, s, "result/x/b", rec{N: 1})
	put(t, s, "circuit/x", rec{N: 2})
	put(t, s, "result/x/a", rec{N: 3})
	put(t, s, "result/x/b", rec{N: 4}) // overwrite keeps first-insertion slot
	want := []string{"result/x/b", "result/x/a"}
	if got := s.Keys("result/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	put(t, s, "result/x/c", rec{N: 5})
	s.Close()

	// Order must be identical after a reload through checkpoint + journal.
	s2 := open(t, dir, Options{})
	want = append(want, "result/x/c")
	if got := s2.Keys("result/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys after reopen = %v, want %v", got, want)
	}
	if got := s2.Keys(""); len(got) != 4 {
		t.Fatalf("Keys(\"\") = %v", got)
	}
}

// TestTornFinalLineDropped simulates a SIGKILL mid-append: the journal ends
// in a half-written line. Open must keep every complete record, drop the
// torn tail, and position new appends so the journal stays parseable.
func TestTornFinalLineDropped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	put(t, s, "a", rec{N: 1})
	put(t, s, "b", rec{N: 2})
	s.Close()

	jp := filepath.Join(dir, "journal.ndjson")
	f, err := os.OpenFile(jp, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := open(t, dir, Options{})
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
	if s2.Has("c") {
		t.Fatal("torn record c survived")
	}
	// The torn bytes must be gone so the next append starts a clean line.
	put(t, s2, "d", rec{N: 4})
	s2.Close()
	s3 := open(t, dir, Options{})
	if s3.Len() != 3 || !s3.Has("d") {
		t.Fatalf("after torn-tail truncate + append: Len=%d Has(d)=%v", s3.Len(), s3.Has("d"))
	}
}

// TestCrashBetweenAppendAndCheckpointRename is the ISSUE's named scenario:
// the process appended records and died while checkpointing — the temp
// checkpoint file exists but was never renamed. Replay must recover every
// acknowledged record from the journal and ignore the orphan temp file.
func TestCrashBetweenAppendAndCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	put(t, s, "a", rec{N: 1})
	put(t, s, "b", rec{N: 2})
	s.Close()

	// A half-finished checkpoint the rename never committed.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.ndjson.tmp-123"),
		[]byte(`{"key":"a","value":{"n":999}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	if got := get(t, s2, "a"); got.N != 1 {
		t.Fatalf("a.N = %d, want 1 (temp checkpoint must be ignored)", got.N)
	}
	if got := get(t, s2, "b"); got.N != 2 {
		t.Fatalf("b.N = %d, want 2", got.N)
	}
}

func TestCheckpointThenJournalLayering(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	put(t, s, "a", rec{N: 1})
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Journal restarted empty; later appends layer over the checkpoint.
	if fi, err := os.Stat(filepath.Join(dir, "journal.ndjson")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after checkpoint: %v size=%d", err, fi.Size())
	}
	put(t, s, "a", rec{N: 7})
	put(t, s, "b", rec{N: 8})
	s.Close()

	s2 := open(t, dir, Options{})
	if got := get(t, s2, "a"); got.N != 7 {
		t.Fatalf("a.N = %d, want 7 (journal must win over checkpoint)", got.N)
	}
	if got := get(t, s2, "b"); got.N != 8 {
		t.Fatalf("b.N = %d", got.N)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CompactEvery: 3, NoSync: true})
	for i := 0; i < 7; i++ {
		put(t, s, fmt.Sprintf("k%d", i%2), rec{N: i}) // two keys, many overwrites
	}
	// 7 appends with CompactEvery=3 → at least two auto-checkpoints; the
	// journal must hold fewer lines than the total append count.
	data, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n >= 3 {
		t.Fatalf("journal has %d lines, auto-compaction did not run", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.ndjson")); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
	s.Close()

	s2 := open(t, dir, Options{})
	if got := get(t, s2, "k0"); got.N != 6 {
		t.Fatalf("k0.N = %d, want 6", got.N)
	}
	if got := get(t, s2, "k1"); got.N != 5 {
		t.Fatalf("k1.N = %d, want 5", got.N)
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.ndjson"),
		[]byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt checkpoint")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	put(t, s, "a", rec{N: 1})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put("b", rec{}); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded")
	}
	// Reads keep working from memory.
	if got := get(t, s, "a"); got.N != 1 {
		t.Fatalf("a.N = %d after Close", got.N)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := open(t, t.TempDir(), Options{NoSync: true, CompactEvery: 10})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 25; i++ {
				if err := s.Put(fmt.Sprintf("g%d-%d", g, i), rec{N: i}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

// TestOpenRejectsNonDirectory pins the Open error path: a data path that
// is an existing file cannot become a store.
func TestOpenRejectsNonDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open on a file succeeded")
	}
}

// TestNoSyncPutsStillReplay pins that NoSync only drops the fsync, not
// the write: a clean reopen still replays every line.
func TestNoSyncPutsStillReplay(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{NoSync: true})
	put(t, s, "a", rec{N: 1})
	put(t, s, "b", rec{N: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	if got := get(t, s2, "b"); got.N != 2 {
		t.Fatalf("b = %+v", got)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
}

// TestUnmarshalableValueRejected pins that Put fails loudly (and durably
// writes nothing) for a value JSON cannot represent, with an error that
// says the value, not the disk, is at fault.
func TestUnmarshalableValueRejected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, v := range []any{func() {}, math.Inf(1)} {
		if err := s.Put("bad", v); !errors.Is(err, ErrUnencodable) {
			t.Fatalf("Put(%T) = %v, want ErrUnencodable", v, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("failed Put left %d records", s.Len())
	}
}

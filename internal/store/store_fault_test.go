package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// reopenClean closes s and reopens the directory with a clean (fault-free)
// filesystem, returning the restarted store: the crash-restart step every
// write-failure test ends with.
func reopenClean(t *testing.T, s *Store, dir string) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after faults: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// wantKeys asserts the store holds exactly the given keys (insertion order)
// with value "v<key>".
func wantKeys(t *testing.T, s *Store, keys ...string) {
	t.Helper()
	got := s.Keys("")
	if len(got) != len(keys) {
		t.Fatalf("keys %v, want %v", got, keys)
	}
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("keys %v, want %v", got, keys)
		}
		var v string
		if ok, err := s.Get(k, &v); !ok || err != nil || v != "v"+k {
			t.Fatalf("get %q: ok=%v err=%v v=%q", k, ok, err, v)
		}
	}
}

func TestJournalAppendErrorLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:write", Kind: fault.Err, After: 1, Count: 1})
	s, err := Open(dir, Options{FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "va"); err != nil {
		t.Fatalf("put a: %v", err)
	}
	if err := s.Put("b", "vb"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put b: %v, want injected append failure", err)
	}
	// The failed Put must not be visible: not in memory, not acknowledged.
	wantKeys(t, s, "a")
	// The store recovers: the same key can be written again.
	if err := s.Put("b", "vb"); err != nil {
		t.Fatalf("put b after recovery: %v", err)
	}
	wantKeys(t, reopenClean(t, s, dir), "a", "b")
}

func TestShortWriteIsRolledBackAndReplaySafe(t *testing.T) {
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:write", Kind: fault.ShortWrite, After: 1, Count: 1})
	s, err := Open(dir, Options{FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "va"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "vb"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put b: %v, want injected short write", err)
	}
	// The torn half-line was truncated away, so the next append starts on
	// a clean line boundary — a mid-journal corruption would make replay
	// drop everything after it.
	if err := s.Put("c", "vc"); err != nil {
		t.Fatalf("put c after torn append: %v", err)
	}
	wantKeys(t, s, "a", "c")
	wantKeys(t, reopenClean(t, s, dir), "a", "c")
}

func TestShortWriteWithoutRecoveryStillReplaysSafely(t *testing.T) {
	// The harder variant: the process dies right after the torn append,
	// before any rollback-aware Put runs. Restart must drop only the torn
	// tail.
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:write", Kind: fault.ShortWrite, After: 1})
	s, err := Open(dir, Options{FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "va"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "vb"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put b: %v, want injected short write", err)
	}
	wantKeys(t, reopenClean(t, s, dir), "a")
}

func TestFsyncErrorLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:sync", Kind: fault.Err, After: 1, Count: 1})
	s, err := Open(dir, Options{FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "va"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "vb"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put b: %v, want injected fsync failure", err)
	}
	// A failed fsync means the write was never acknowledged: it must not
	// surface from memory nor from a restart.
	wantKeys(t, s, "a")
	if err := s.Put("c", "vc"); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, reopenClean(t, s, dir), "a", "c")
}

func TestCheckpointRenameErrorKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:rename", Kind: fault.Err, Count: 1})
	s, err := Open(dir, Options{FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, "v"+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint: %v, want injected rename failure", err)
	}
	// The failed checkpoint lost nothing: the journal still holds every
	// record, new writes land, and a later checkpoint succeeds.
	wantKeys(t, s, "a", "b", "c")
	if err := s.Put("d", "vd"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatalf("checkpoint file after retry: %v", err)
	}
	wantKeys(t, reopenClean(t, s, dir), "a", "b", "c", "d")
}

func TestCheckpointTempCreateErrorKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:create", Kind: fault.Err, Count: 1})
	s, err := Open(dir, Options{FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "va"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint: %v, want injected create failure", err)
	}
	wantKeys(t, reopenClean(t, s, dir), "a")
}

func TestAutoCheckpointRenameFailureDoesNotLoseThePut(t *testing.T) {
	// Auto-compaction fires inside Put; if its rename fails the Put's own
	// append already succeeded and must survive a restart even though Put
	// reported the checkpoint error.
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:rename", Kind: fault.Err, Count: 1})
	s, err := Open(dir, Options{CompactEvery: 2, FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "va"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "vb"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("put b (auto-checkpoint): %v, want injected rename failure", err)
	}
	wantKeys(t, s, "a", "b")
	wantKeys(t, reopenClean(t, s, dir), "a", "b")
}

func TestPersistentWriteFailureThenRecovery(t *testing.T) {
	// A burst of failures (the degraded-mode scenario) followed by a healthy
	// disk: every acknowledged Put survives, every failed one is absent.
	dir := t.TempDir()
	plan := fault.New(3, fault.Rule{Op: "fs:write", Kind: fault.Err, After: 1, Count: 5})
	s, err := Open(dir, Options{FS: fault.NewFS(plan, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "va"); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < 5; i++ {
		if err := s.Put("x", "bad"); err != nil {
			failed++
		}
	}
	if failed != 5 {
		t.Fatalf("%d of 5 puts failed during the outage, want all", failed)
	}
	if has(t, s, "x") {
		t.Fatal("failed puts leaked into memory")
	}
	if err := s.Put("b", "vb"); err != nil {
		t.Fatalf("put after outage: %v", err)
	}
	wantKeys(t, reopenClean(t, s, dir), "a", "b")
}

package service

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/snapshot"
)

func testResult() experiments.LegResult {
	return experiments.LegResult{
		Name: "leg", Cycles: 12345, Instructions: 678,
		Stats: map[string]uint64{"inter.transactions": 42},
	}
}

func TestStoreResultRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "00deadbeef"
	if _, ok := s.GetResult(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.PutResult(key, testResult()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetResult(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !got.Identical(testResult()) {
		t.Fatalf("round trip changed the result: %+v", got)
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.Hits(), s.Misses())
	}
}

// TestStoreCorruptionIsAMiss is the poisoning defense: a truncated or
// bit-flipped result file must read as a cache miss (forcing a re-run)
// and be deleted — never served as a result.
func TestStoreCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "11cafe"
	if err := s.PutResult(key, testResult()); err != nil {
		t.Fatal(err)
	}
	path := s.resultPath(key)

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, data []byte) []byte
	}{
		{"truncated", func(t *testing.T, data []byte) []byte {
			return data[:len(data)/2]
		}},
		{"not json", func(t *testing.T, data []byte) []byte {
			return []byte("not a result at all")
		}},
		{"bit flip under intact frame", func(t *testing.T, data []byte) []byte {
			// Flip a payload digit: still valid JSON, but the CRC no
			// longer matches — the case plain parsing cannot catch.
			for i := range data {
				if data[i] == '1' {
					data[i] = '7'
					return data
				}
			}
			t.Fatal("no digit to flip")
			return nil
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if err := s.PutResult(key, testResult()); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.corrupt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			if res, ok := s.GetResult(key); ok {
				t.Fatalf("corrupt file served as a result: %+v", res)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt file not deleted")
			}
			// A re-run repopulates and the key serves again.
			if err := s.PutResult(key, testResult()); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.GetResult(key); !ok {
				t.Fatal("store poisoned: put after corruption does not serve")
			}
		})
	}
}

func TestStoreSnapshotCorruptionIsAMiss(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot files are validated by the snapshot package's own magic
	// and checksums; arbitrary bytes must not come back.
	if err := s.PutSnapshot("aa00", []byte("garbage, not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSnapshot("aa00"); ok {
		t.Fatal("garbage snapshot served")
	}
	if _, err := os.Stat(s.snapPath("aa00")); !os.IsNotExist(err) {
		t.Error("corrupt snapshot not deleted")
	}
}

// TestStoreStaleSnapshotVersionIsAMiss covers a store directory that
// outlives a format bump: a well-formed snapshot written by a build with
// another snapshot.Version fails snapshot.Read with ErrVersion, which the
// store must turn into a miss (and a re-run of the warm-up), not an
// error and never a restore.
func TestStoreStaleSnapshotVersionIsAMiss(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewWriter()
	w.Add("meta", []byte("payload"))
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSnapshot("bb00", data); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSnapshot("bb00"); !ok {
		t.Fatal("current-version snapshot not served")
	}
	binary.LittleEndian.PutUint32(data[len(snapshot.Magic):], snapshot.Version-1)
	if err := s.PutSnapshot("bb00", data); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSnapshot("bb00"); ok {
		t.Fatal("previous-version snapshot served")
	}
	if _, err := os.Stat(s.snapPath("bb00")); !os.IsNotExist(err) {
		t.Error("stale snapshot not deleted")
	}
}

func TestStoreArtifacts(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact("j1", "result.json", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact("j1", "leg0.vcd", []byte("$date")); err != nil {
		t.Fatal(err)
	}
	names := s.ListArtifacts("j1")
	if len(names) != 2 {
		t.Fatalf("ListArtifacts = %v, want 2 names", names)
	}
	data, err := s.GetArtifact("j1", "leg0.vcd")
	if err != nil || string(data) != "$date" {
		t.Fatalf("GetArtifact = %q, %v", data, err)
	}
	if got := s.ListArtifacts("nope"); len(got) != 0 {
		t.Errorf("artifacts for unknown job: %v", got)
	}
}

func TestStoreWritesAreAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("22aa", testResult()); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	var leftovers []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Base(path)[0] == '.' {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if len(leftovers) > 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

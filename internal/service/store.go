package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/snapshot"
)

// Store is the persistent result store: leg results and warm-boot
// snapshots content-addressed on disk. Keys come from
// experiments.LegSpec.Key (full config hash + canonical spec +
// snapshot hash) and LegSpec.StateKey (warm-boot compatibility class),
// so any server pointed at the same directory serves the same sweeps
// from cache.
//
// Layout under the root:
//
//	results/<key[:2]>/<key>.json   CRC-framed LegResult
//	snapshots/<stateKey>.snap      versioned snapshot file (self-checksummed)
//
// Every read validates: a result file with a bad frame or CRC — and a
// snapshot that fails the snapshot package's own section checksums —
// counts as a miss and is deleted, so corruption causes a re-run, never
// a poisoned response. Writes are atomic (tmp + rename); concurrent
// writers of the same key race benignly to identical content.
type Store struct {
	root string

	hits, misses atomic.Uint64
}

// resultEnvelope frames a stored LegResult: Payload is the result's
// raw JSON, CRC its IEEE CRC-32. The indirection makes corruption
// detectable even when the damage still parses as JSON.
type resultEnvelope struct {
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{"results", "snapshots"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{root: dir}, nil
}

// Hits and Misses report the lifetime result-lookup counters.
func (s *Store) Hits() uint64   { return s.hits.Load() }
func (s *Store) Misses() uint64 { return s.misses.Load() }

func (s *Store) resultPath(key string) string {
	return filepath.Join(s.root, "results", key[:2], key+".json")
}

func (s *Store) snapPath(stateKey string) string {
	return filepath.Join(s.root, "snapshots", stateKey+".snap")
}

// GetResult looks the key up, returning ok=false on any miss —
// including a present-but-corrupt file, which it deletes so the
// subsequent re-run can repopulate it.
func (s *Store) GetResult(key string) (experiments.LegResult, bool) {
	var res experiments.LegResult
	data, err := os.ReadFile(s.resultPath(key))
	if err != nil {
		s.misses.Add(1)
		return res, false
	}
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil ||
		crc32.ChecksumIEEE(env.Payload) != env.CRC ||
		json.Unmarshal(env.Payload, &res) != nil {
		os.Remove(s.resultPath(key))
		s.misses.Add(1)
		return experiments.LegResult{}, false
	}
	s.hits.Add(1)
	return res, true
}

// PutResult stores the result under key.
func (s *Store) PutResult(key string, res experiments.LegResult) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return err
	}
	data, err := json.Marshal(resultEnvelope{CRC: crc32.ChecksumIEEE(payload), Payload: payload})
	if err != nil {
		return err
	}
	return s.writeAtomic(s.resultPath(key), data)
}

// GetSnapshot looks a warm-boot snapshot up by its compatibility-class
// key. The snapshot file format carries its own magic and per-section
// CRCs, so validation delegates to the snapshot package; a corrupt file
// is deleted and reads as a miss.
func (s *Store) GetSnapshot(stateKey string) ([]byte, bool) {
	data, err := os.ReadFile(s.snapPath(stateKey))
	if err != nil {
		return nil, false
	}
	if _, err := snapshot.Read(data); err != nil {
		os.Remove(s.snapPath(stateKey))
		return nil, false
	}
	return data, true
}

// PutSnapshot stores warm-boot snapshot bytes under their
// compatibility-class key.
func (s *Store) PutSnapshot(stateKey string, data []byte) error {
	return s.writeAtomic(s.snapPath(stateKey), data)
}

// PutArtifact stores a named per-job artifact (result.json, leg VCDs,
// warm-boot snapshots) under jobs/<id>/<name>. Callers sanitize name.
func (s *Store) PutArtifact(jobID, name string, data []byte) error {
	return s.writeAtomic(filepath.Join(s.root, "jobs", jobID, name), data)
}

// GetArtifact reads a per-job artifact.
func (s *Store) GetArtifact(jobID, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.root, "jobs", jobID, name))
}

// ListArtifacts names a job's stored artifacts (empty when none).
func (s *Store) ListArtifacts(jobID string) []string {
	ents, err := os.ReadDir(filepath.Join(s.root, "jobs", jobID))
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

// writeAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a partial file.
func (s *Store) writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if err := errors.Join(werr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

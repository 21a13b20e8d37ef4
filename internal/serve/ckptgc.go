package serve

// ckptgc.go bounds the checkpoint directory: aborted searches leave
// resumable files behind, and a key evicted from the result cache would
// otherwise keep its file forever.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// gcCheckpoints bounds the checkpoint directory: files older than
// Config.CheckpointGCAge or beyond the CheckpointGCMax newest are
// deleted, except those referenced by in-flight executions. Runs at
// startup, after a drain, and on the gcLoop timer, so evicted cache keys
// do not leak their checkpoints, even on a server that never drains.
// Sweeps are serialized.
func (s *Server) gcCheckpoints() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	names, err := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "*.ckpt"))
	if err != nil || len(names) == 0 {
		return
	}
	type ckptFile struct {
		path string
		key  string
		mod  int64
	}
	files := make([]ckptFile, 0, len(names))
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			continue
		}
		files = append(files, ckptFile{
			path: name,
			key:  strings.TrimSuffix(filepath.Base(name), ".ckpt"),
			mod:  fi.ModTime().UnixNano(),
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod > files[j].mod }) // newest first
	inflight := s.cache.inflightKeys()
	cutoff := int64(0)
	if age := s.cfg.CheckpointGCAge; age > 0 {
		cutoff = time.Now().UnixNano() - age.Nanoseconds()
	}
	removed := 0
	for i, f := range files {
		if inflight[f.key] {
			continue
		}
		if i < s.cfg.CheckpointGCMax && f.mod >= cutoff {
			continue
		}
		if os.Remove(f.path) == nil {
			removed++
		}
	}
	if removed > 0 {
		s.logf("checkpoint gc: removed %d of %d file(s)", removed, len(files))
	}
}

// gcLoop sweeps the checkpoint directory every Config.CheckpointGCEvery
// until Drain, so age-based GC happens on a live server too (the files of
// a never-draining deployment would otherwise outlive CheckpointGCAge
// until the next restart).
func (s *Server) gcLoop() {
	t := time.NewTicker(s.cfg.CheckpointGCEvery)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			s.gcCheckpoints()
		}
	}
}

package fg

// Pass-level checkpoints. The multi-pass structure of an out-of-core
// computation hands us recovery points for free: every pass ends at a
// materialized boundary (run files on disk, a transposed matrix), so a
// restarted rank can re-enter at the last completed pass instead of
// recomputing from scratch. A Checkpoint stores, per (rank, pass), a small
// opaque state blob plus the files that pass materialized, committed
// atomically so a rank killed mid-save never leaves a checkpoint that
// validates.
//
// The interface is deliberately tiny — Completed / Save / Restore — so node
// programs can wire it in at pass boundaries without caring where the bytes
// live. DirCheckpoint is the filesystem implementation the supervisor uses;
// tests substitute in-memory fakes.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// A Checkpoint persists pass results so a restarted rank can skip completed
// passes. Implementations must commit atomically: a Save interrupted at any
// point (including kill -9 mid-write) must leave Completed reporting false
// and Restore failing validation, never a half-written checkpoint that
// reads as complete.
type Checkpoint interface {
	// Completed reports whether a valid checkpoint exists for the pass:
	// committed by Save and passing whatever integrity validation the
	// implementation performs on the manifest.
	Completed(rank int, pass string) bool
	// Save records a completed pass: an opaque state blob (the program's
	// own bookkeeping — run lengths, sample splitters) and the files the
	// pass materialized, keyed by name. Save replaces any previous
	// checkpoint for the same (rank, pass).
	Save(rank int, pass string, state []byte, files map[string][]byte) error
	// Restore returns the state and files Save recorded, after validating
	// integrity. It fails if the checkpoint is absent, torn, or corrupt.
	// The caller owns the returned slices and may modify them.
	Restore(rank int, pass string) (state []byte, files map[string][]byte, err error)
}

// DirCheckpoint is the filesystem Checkpoint: one directory per rank, one
// manifest per pass. The layout under the root is
//
//	rank<r>/<pass>.json     manifest: pass, rank, state, file digests
//	rank<r>/<pass>.d/<f>    the pass's materialized files
//
// Save writes the data files first, then the manifest to a temporary name,
// fsyncs, and commits with an atomic rename — the manifest's existence is
// the commit point, and its SHA-256 digests are checked against the data
// files on every Completed and Restore, so a torn or tampered checkpoint
// reads as absent rather than as truth.
type DirCheckpoint struct {
	dir string
}

// NewDirCheckpoint opens (creating if needed) a checkpoint store rooted at
// dir. The directory is shared by all ranks of one job; concurrent Saves by
// different ranks are safe, concurrent Saves of the same (rank, pass) are
// the caller's race to lose.
func NewDirCheckpoint(dir string) (*DirCheckpoint, error) {
	if dir == "" {
		return nil, fmt.Errorf("fg: checkpoint directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fg: checkpoint dir: %w", err)
	}
	return &DirCheckpoint{dir: dir}, nil
}

// ckptManifest is the JSON body of the <pass>.json commit record.
type ckptManifest struct {
	Pass  string     `json:"pass"`
	Rank  int        `json:"rank"`
	State []byte     `json:"state,omitempty"`
	Files []ckptFile `json:"files"`
}

type ckptFile struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// ckptName rejects names that would escape the checkpoint tree.
func ckptName(kind, name string) error {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("fg: checkpoint %s name %q is not a plain file name", kind, name)
	}
	return nil
}

func (c *DirCheckpoint) rankDir(rank int) string {
	return filepath.Join(c.dir, "rank"+strconv.Itoa(rank))
}

func (c *DirCheckpoint) manifestPath(rank int, pass string) string {
	return filepath.Join(c.rankDir(rank), pass+".json")
}

func (c *DirCheckpoint) filesDir(rank int, pass string) string {
	return filepath.Join(c.rankDir(rank), pass+".d")
}

func (c *DirCheckpoint) Completed(rank int, pass string) bool {
	_, _, err := c.Restore(rank, pass)
	return err == nil
}

func (c *DirCheckpoint) Save(rank int, pass string, state []byte, files map[string][]byte) error {
	if err := ckptName("pass", pass); err != nil {
		return err
	}
	rd := c.rankDir(rank)
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return fmt.Errorf("fg: checkpoint save: %w", err)
	}
	// Stale data from a previous attempt of this pass must not survive
	// under the new manifest's nose.
	fd := c.filesDir(rank, pass)
	if err := os.RemoveAll(fd); err != nil {
		return fmt.Errorf("fg: checkpoint save: %w", err)
	}
	if err := os.Remove(c.manifestPath(rank, pass)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("fg: checkpoint save: %w", err)
	}
	m := ckptManifest{Pass: pass, Rank: rank, State: state}
	if len(files) > 0 {
		if err := os.MkdirAll(fd, 0o755); err != nil {
			return fmt.Errorf("fg: checkpoint save: %w", err)
		}
	}
	for name, data := range files {
		if err := ckptName("file", name); err != nil {
			return err
		}
		if err := writeFileSync(filepath.Join(fd, name), data); err != nil {
			return fmt.Errorf("fg: checkpoint save %q: %w", name, err)
		}
		sum := sha256.Sum256(data)
		m.Files = append(m.Files, ckptFile{
			Name:   name,
			Size:   int64(len(data)),
			SHA256: hex.EncodeToString(sum[:]),
		})
	}
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("fg: checkpoint save: %w", err)
	}
	// The commit point: data files are all durable, so renaming the
	// manifest into place flips the checkpoint from absent to complete in
	// one atomic step.
	final := c.manifestPath(rank, pass)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, body); err != nil {
		return fmt.Errorf("fg: checkpoint save: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("fg: checkpoint save: %w", err)
	}
	return syncDir(rd)
}

func (c *DirCheckpoint) Restore(rank int, pass string) ([]byte, map[string][]byte, error) {
	if err := ckptName("pass", pass); err != nil {
		return nil, nil, err
	}
	body, err := os.ReadFile(c.manifestPath(rank, pass))
	if err != nil {
		return nil, nil, fmt.Errorf("fg: checkpoint restore: %w", err)
	}
	var m ckptManifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, nil, fmt.Errorf("fg: checkpoint restore: manifest corrupt: %w", err)
	}
	if m.Pass != pass || m.Rank != rank {
		return nil, nil, fmt.Errorf("fg: checkpoint restore: manifest names (rank %d, pass %q), want (rank %d, pass %q)",
			m.Rank, m.Pass, rank, pass)
	}
	files := make(map[string][]byte, len(m.Files))
	for _, mf := range m.Files {
		if err := ckptName("file", mf.Name); err != nil {
			return nil, nil, err
		}
		data, err := os.ReadFile(filepath.Join(c.filesDir(rank, pass), mf.Name))
		if err != nil {
			return nil, nil, fmt.Errorf("fg: checkpoint restore: %w", err)
		}
		if int64(len(data)) != mf.Size {
			return nil, nil, fmt.Errorf("fg: checkpoint restore: %q is %d bytes, manifest says %d",
				mf.Name, len(data), mf.Size)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != mf.SHA256 {
			return nil, nil, fmt.Errorf("fg: checkpoint restore: %q fails digest validation", mf.Name)
		}
		files[mf.Name] = data
	}
	return m.State, files, nil
}

// Clear removes every checkpoint for the rank, so a supervisor can force a
// from-scratch attempt.
func (c *DirCheckpoint) Clear(rank int) error {
	return os.RemoveAll(c.rankDir(rank))
}

// writeFileSync writes data and fsyncs before closing: a checkpoint that
// claims durability must not evaporate with the page cache.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-committed rename survives a crash.
// Filesystems that refuse to sync directories (some CI sandboxes) are
// forgiven: the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

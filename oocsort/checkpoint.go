package oocsort

// Pass-level checkpoints. Every pass of an out-of-core sort ends at a
// materialized boundary (run files on disk, a transposed matrix), so a
// restarted rank can re-enter at the last completed pass instead of
// recomputing from scratch: checkpointing a pass exports its artifacts and
// a small state blob, keyed by (rank, pass); resuming decides collectively
// that every rank holds a valid checkpoint and imports the artifacts back.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/fg-go/fg/cluster"
)

// DirCheckpoint is the checkpoint store: one directory per rank, one
// manifest per pass. The layout under the root is
//
//	rank<r>/<pass>.json     manifest: pass, rank, state, file digests
//	rank<r>/<pass>.d/<f>    the pass's materialized files
//
// Save writes the data files first, then the manifest to a temporary name,
// fsyncs, and commits with an atomic rename — the manifest's existence is
// the commit point, and its SHA-256 digests are checked against the data
// files on every Restore, so a torn or tampered checkpoint reads as absent
// rather than as truth.
type DirCheckpoint struct {
	dir string
}

// NewDirCheckpoint opens (creating if needed) a checkpoint store rooted at
// dir. The directory is shared by all ranks of one job; concurrent Saves by
// different ranks are safe, concurrent Saves of the same (rank, pass) are
// the caller's race to lose.
func NewDirCheckpoint(dir string) (*DirCheckpoint, error) {
	if dir == "" {
		return nil, fmt.Errorf("oocsort: checkpoint directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oocsort: checkpoint dir: %w", err)
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
		return fmt.Errorf("oocsort: checkpoint %s name %q is not a plain file name", kind, name)
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

// Save records a completed pass: an opaque state blob (the program's own
// bookkeeping — run lengths, sample splitters) and the files the pass
// materialized, keyed by name. Save replaces any previous checkpoint for
// the same (rank, pass); interrupted at any point, kill -9 mid-write
// included, it leaves Restore failing validation, never a half-written
// checkpoint that reads as complete.
func (c *DirCheckpoint) Save(rank int, pass string, state []byte, files map[string][]byte) error {
	if err := ckptName("pass", pass); err != nil {
		return err
	}
	rd := c.rankDir(rank)
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return fmt.Errorf("oocsort: checkpoint save: %w", err)
	}
	// Stale data from a previous attempt of this pass must not survive
	// under the new manifest's nose.
	fd := c.filesDir(rank, pass)
	if err := os.RemoveAll(fd); err != nil {
		return fmt.Errorf("oocsort: checkpoint save: %w", err)
	}
	if err := os.Remove(c.manifestPath(rank, pass)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("oocsort: checkpoint save: %w", err)
	}
	m := ckptManifest{Pass: pass, Rank: rank, State: state}
	if len(files) > 0 {
		if err := os.MkdirAll(fd, 0o755); err != nil {
			return fmt.Errorf("oocsort: checkpoint save: %w", err)
		}
	}
	for name, data := range files {
		if err := ckptName("file", name); err != nil {
			return err
		}
		if err := writeFileSync(filepath.Join(fd, name), data); err != nil {
			return fmt.Errorf("oocsort: checkpoint save %q: %w", name, err)
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
		return fmt.Errorf("oocsort: checkpoint save: %w", err)
	}
	// The commit point: data files are all durable, so renaming the
	// manifest into place flips the checkpoint from absent to complete in
	// one atomic step.
	final := c.manifestPath(rank, pass)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, body); err != nil {
		return fmt.Errorf("oocsort: checkpoint save: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("oocsort: checkpoint save: %w", err)
	}
	syncDir(rd)
	return nil
}

// Restore returns the state and files Save recorded, after validating
// integrity. It fails if the checkpoint is absent, torn, or corrupt. The
// caller owns the returned slices and may modify them.
func (c *DirCheckpoint) Restore(rank int, pass string) ([]byte, map[string][]byte, error) {
	if err := ckptName("pass", pass); err != nil {
		return nil, nil, err
	}
	body, err := os.ReadFile(c.manifestPath(rank, pass))
	if err != nil {
		return nil, nil, fmt.Errorf("oocsort: checkpoint restore: %w", err)
	}
	var m ckptManifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, nil, fmt.Errorf("oocsort: checkpoint restore: manifest corrupt: %w", err)
	}
	if m.Pass != pass || m.Rank != rank {
		return nil, nil, fmt.Errorf("oocsort: checkpoint restore: manifest names (rank %d, pass %q), want (rank %d, pass %q)",
			m.Rank, m.Pass, rank, pass)
	}
	files := make(map[string][]byte, len(m.Files))
	for _, mf := range m.Files {
		if err := ckptName("file", mf.Name); err != nil {
			return nil, nil, err
		}
		data, err := os.ReadFile(filepath.Join(c.filesDir(rank, pass), mf.Name))
		if err != nil {
			return nil, nil, fmt.Errorf("oocsort: checkpoint restore: %w", err)
		}
		if int64(len(data)) != mf.Size {
			return nil, nil, fmt.Errorf("oocsort: checkpoint restore: %q is %d bytes, manifest says %d",
				mf.Name, len(data), mf.Size)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != mf.SHA256 {
			return nil, nil, fmt.Errorf("oocsort: checkpoint restore: %q fails digest validation", mf.Name)
		}
		files[mf.Name] = data
	}
	return m.State, files, nil
}

// SavePass checkpoints one completed pass on node n: the caller's state
// blob plus the named files exported from the node's disk. Export bypasses
// the simulated disk cost — a checkpoint is durability bookkeeping, not
// part of the modeled I/O.
func (c *DirCheckpoint) SavePass(n *cluster.Node, pass string, state []byte, files ...string) error {
	m := make(map[string][]byte, len(files))
	for _, name := range files {
		m[name] = n.Disk.Export(name)
	}
	return c.Save(n.Rank(), pass, state, m)
}

// RestorePass decides collectively, over comm, whether the job may skip
// past pass: each rank restores its own checkpoint once and votes with the
// outcome, the votes are allgathered, and only a unanimous yes imports the
// restored files onto the node's disk (Disk.Import takes the slices without
// a copy) and returns ok with the state blob. Unanimity keeps the decision
// identical on every rank — a single rank with a missing or torn checkpoint
// (the one that died mid-save) forces the whole pass to rerun, which is
// always correct because pass inputs are either regenerable or themselves
// checkpointed. Call it from every rank, like any collective.
func (c *DirCheckpoint) RestorePass(n *cluster.Node, comm *cluster.Comm, pass string) (state []byte, ok bool) {
	state, files, err := c.Restore(n.Rank(), pass)
	vote := []byte{0}
	if err == nil {
		vote[0] = 1
	}
	for _, v := range comm.Allgather(vote) {
		if len(v) != 1 || v[0] == 0 {
			return nil, false
		}
	}
	for name, data := range files {
		n.Disk.Import(name, data)
	}
	return state, true
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
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

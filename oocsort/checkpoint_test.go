package oocsort

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestDirCheckpointRoundTrip(t *testing.T) {
	ck, err := NewDirCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Restore(0, "pass1"); err == nil {
		t.Fatal("empty store restores pass1")
	}
	state := []byte(`{"runLens":[3,2]}`)
	files := map[string][]byte{
		"dsort.runs": bytes.Repeat([]byte("r"), 1<<12),
		"empty":      {},
	}
	if err := ck.Save(0, "pass1", state, files); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Restore(1, "pass1"); err == nil {
		t.Fatal("a checkpoint leaked across ranks")
	}
	if _, _, err := ck.Restore(0, "pass2"); err == nil {
		t.Fatal("a checkpoint leaked across passes")
	}
	gotState, gotFiles, err := ck.Restore(0, "pass1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, state) {
		t.Errorf("state round-trip: got %q, want %q", gotState, state)
	}
	if len(gotFiles) != len(files) {
		t.Fatalf("restored %d files, want %d", len(gotFiles), len(files))
	}
	for name, data := range files {
		if !bytes.Equal(gotFiles[name], data) {
			t.Errorf("file %q did not round-trip", name)
		}
	}
}

func TestDirCheckpointSaveReplaces(t *testing.T) {
	ck, err := NewDirCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(2, "pass1", []byte("v1"), map[string][]byte{"a": []byte("old"), "gone": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(2, "pass1", []byte("v2"), map[string][]byte{"a": []byte("new")}); err != nil {
		t.Fatal(err)
	}
	state, files, err := ck.Restore(2, "pass1")
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "v2" || string(files["a"]) != "new" {
		t.Errorf("re-save did not replace: state=%q files=%v", state, files)
	}
	if _, ok := files["gone"]; ok {
		t.Error("stale file from the replaced checkpoint survived")
	}
}

func TestDirCheckpointRejectsPathEscapes(t *testing.T) {
	ck, err := NewDirCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"", "..", "a/b", ".hidden"} {
		if err := ck.Save(0, pass, nil, nil); err == nil {
			t.Errorf("Save accepted pass name %q", pass)
		}
	}
	if err := ck.Save(0, "ok", nil, map[string][]byte{"../escape": []byte("x")}); err == nil {
		t.Error("Save accepted a file name with a path separator")
	}
}

// The chaos cases: every way a kill -9 or a flaky disk can tear a
// checkpoint must read as "no checkpoint", never as a valid one. The commit
// protocol (files, then manifest via atomic rename) means the observable
// torn states are: tmp manifest only, manifest with a missing file, a file
// with the wrong bytes, or a truncated/garbled manifest.
func TestDirCheckpointTornSavesNeverValidate(t *testing.T) {
	newSaved := func(t *testing.T) (*DirCheckpoint, string) {
		dir := t.TempDir()
		ck, err := NewDirCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		err = ck.Save(1, "pass1", []byte("state"), map[string][]byte{"runs": []byte("sorted run bytes")})
		if err != nil {
			t.Fatal(err)
		}
		return ck, filepath.Join(dir, "rank1")
	}
	mustInvalid := func(t *testing.T, ck *DirCheckpoint, why string) {
		t.Helper()
		if _, _, err := ck.Restore(1, "pass1"); err == nil {
			t.Errorf("%s: Restore validated", why)
		}
	}

	t.Run("KilledBeforeCommit", func(t *testing.T) {
		// Data files written, manifest only at its temporary name: the
		// rename never happened.
		ck, rd := newSaved(t)
		if err := os.Rename(filepath.Join(rd, "pass1.json"), filepath.Join(rd, "pass1.json.tmp")); err != nil {
			t.Fatal(err)
		}
		mustInvalid(t, ck, "uncommitted manifest")
	})
	t.Run("DataFileMissing", func(t *testing.T) {
		ck, rd := newSaved(t)
		if err := os.Remove(filepath.Join(rd, "pass1.d", "runs")); err != nil {
			t.Fatal(err)
		}
		mustInvalid(t, ck, "missing data file")
	})
	t.Run("DataFileTruncated", func(t *testing.T) {
		ck, rd := newSaved(t)
		if err := os.Truncate(filepath.Join(rd, "pass1.d", "runs"), 4); err != nil {
			t.Fatal(err)
		}
		mustInvalid(t, ck, "truncated data file")
	})
	t.Run("DataFileCorrupt", func(t *testing.T) {
		// Same size, different bytes: only the digest catches it.
		ck, rd := newSaved(t)
		p := filepath.Join(rd, "pass1.d", "runs")
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mustInvalid(t, ck, "corrupt data file")
	})
	t.Run("ManifestTruncated", func(t *testing.T) {
		ck, rd := newSaved(t)
		if err := os.Truncate(filepath.Join(rd, "pass1.json"), 10); err != nil {
			t.Fatal(err)
		}
		mustInvalid(t, ck, "truncated manifest")
	})
	t.Run("ManifestForWrongPass", func(t *testing.T) {
		// A manifest copied or renamed across passes must not validate.
		ck, rd := newSaved(t)
		body, err := os.ReadFile(filepath.Join(rd, "pass1.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(rd, "pass2.json"), body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ck.Restore(1, "pass2"); err == nil {
			t.Error("manifest renamed across passes validated")
		}
	})
}

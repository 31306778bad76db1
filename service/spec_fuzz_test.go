package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzJobSpec holds the job-spec decoder to its contract: whatever the
// bytes — truncated JSON, wrong types, hostile numbers — DecodeJobSpec
// must return an error or a valid spec, never panic. Specs cross the trust
// boundary between a client and the daemon; a spec that crashes fgd is a
// denial of service for every tenant, which is exactly what the service
// layer exists to prevent. Seeds are the checked-in examples plus the
// malformations the strict decoder is documented to reject (mirroring
// soak's FuzzScenarioPlan).
func FuzzJobSpec(f *testing.F) {
	dir := filepath.Join("..", "examples", "jobspecs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(`{"program": "dsort", "nodes": 2, "records": 4096}`)
	f.Add(`{"program": "dsort", "nodes": 1e9, "records": -1}`)
	f.Add(`{"program": "dsort", "unknown": {"deeply": ["nested"]}}`)
	f.Add(`{"fault": {"kind": "panic-op", "rank": 99999999999999999999}}`)
	f.Add(`{"disk": {"seek_latency_us": -9e99}}`)
	f.Add(`{} {}`)
	f.Add(`[`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := DecodeJobSpec(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Validate already ran inside DecodeJobSpec; spot-check the
		// invariants the daemon leans on hardest.
		if s.Nodes < 2 || s.Nodes > 64 {
			t.Fatalf("decoded spec with %d nodes", s.Nodes)
		}
		if s.Records <= 0 {
			t.Fatalf("decoded spec with %d records", s.Records)
		}
		if s.Records%int64(s.Nodes*s.job().ColumnsPerNode) != 0 {
			t.Fatalf("decoded spec with indivisible records")
		}
		if f := s.Fault; f != nil && (f.Rank < 0 || f.Rank >= s.Nodes) {
			t.Fatalf("decoded fault rank %d outside %d-node job", f.Rank, s.Nodes)
		}
		if s.Bytes() <= 0 {
			t.Fatalf("decoded spec with non-positive byte volume %d", s.Bytes())
		}
	})
}

package colsort

import (
	"errors"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// TestChaosCsortCommFaultFailsCleanly injects a single communication fault
// into node 0. Sends are not idempotent, so csort cannot retry them: the
// run must fail cleanly — the injected fault surfacing through the comm
// panic, the fg panic guard, and the cluster abort — without hanging the
// other nodes' blocked receives or leaking goroutines.
func TestChaosCsortCommFaultFailsCleanly(t *testing.T) {
	check.NoLeakedGoroutines(t)
	const p, cpn = 4, 2
	spec := oocsort.DefaultSpec()
	spec.Format = records.NewFormat(16)
	spec.TotalRecords = 1024
	spec.Distribution = workload.Uniform
	spec.Seed = 42
	spec.RecordsPerBlock = int(spec.TotalRecords) / (p * cpn)
	pl, err := NewPlan(spec, p, cpn)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{Nodes: p})
	if _, err := oocsort.GenerateInput(c, spec); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{FailN: 1})
	c.Node(0).SetFault(inj.CommHook("send"))

	start := time.Now()
	err = c.Run(func(node *cluster.Node) error {
		_, err := Run(node, pl)
		return err
	})
	if err == nil {
		t.Fatal("csort succeeded despite an injected communication fault")
	}
	var f *faultinject.Fault
	if !errors.As(err, &f) {
		t.Errorf("error does not carry the injected fault: %v", err)
	}
	var ce *cluster.CommError
	if !errors.As(err, &ce) {
		t.Errorf("error does not carry the CommError context: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("failure took %v to surface", d)
	}
}

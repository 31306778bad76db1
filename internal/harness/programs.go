package harness

import (
	"errors"
	"fmt"
	"strings"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/colsort"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/oocsort"
)

// Program identifies a sorting program the harness can run.
type Program string

const (
	Dsort       Program = dsort.Name
	Csort       Program = colsort.Name
	Csort4      Program = colsort.FourPassName
	DsortLinear Program = dsort.LinearName
)

// A launch is what one run hands every node's program: the job, the cluster
// shape, and the run-time options compiled from Params.
type launch struct {
	spec                  oocsort.Spec
	nodes, columnsPerNode int
	buffers               int // <= 0 keeps the program's default pool size
	opts                  oocsort.Options
	tune                  func(*dsort.Config) // RunTuned's adjustment, or nil
}

type runner func(*cluster.Node, launch) (oocsort.Result, error)

// programs is the program table: the one place the runnable programs are
// enumerated. Every front end's notion of a valid program name, and the help
// text that lists them, derive from it.
var programs = []struct {
	name Program
	run  runner
}{
	{Dsort, func(n *cluster.Node, l launch) (oocsort.Result, error) { return dsort.Run(n, l.dsortConfig()) }},
	{Csort, func(n *cluster.Node, l launch) (oocsort.Result, error) { return l.columnsort(n, colsort.RunBuffers) }},
	{Csort4, func(n *cluster.Node, l launch) (oocsort.Result, error) {
		return l.columnsort(n, colsort.RunFourPassBuffers)
	}},
	{DsortLinear, func(n *cluster.Node, l launch) (oocsort.Result, error) { return dsort.RunLinear(n, l.dsortConfig()) }},
}

// programList renders the table's names for help and error text.
func programList() string {
	names := make([]string, len(programs))
	for i, p := range programs {
		names[i] = string(p.name)
	}
	return strings.Join(names, ", ")
}

// runner looks the program up in the table.
func (prog Program) runner() (runner, error) {
	for _, p := range programs {
		if p.name == prog {
			return p.run, nil
		}
	}
	return nil, fmt.Errorf("unknown program %q (have %s)", prog, programList())
}

func (l launch) dsortConfig() dsort.Config {
	cfg := dsort.DefaultConfig(l.spec, l.nodes)
	cfg.Options = l.opts
	if l.buffers > 0 {
		cfg.Buffers = l.buffers
	}
	if l.tune != nil {
		l.tune(&cfg)
	}
	return cfg
}

func (l launch) columnsort(n *cluster.Node, run func(*cluster.Node, colsort.Plan, int) (oocsort.Result, error)) (oocsort.Result, error) {
	if l.tune != nil {
		return oocsort.Result{}, errors.New("harness: a dsort configuration cannot tune columnsort")
	}
	pl, err := colsort.NewPlan(l.spec, l.nodes, l.columnsPerNode)
	if err != nil {
		return oocsort.Result{}, err
	}
	pl.Options = l.opts
	if l.buffers <= 0 {
		l.buffers = colsort.DefaultPipelineBuffers
	}
	return run(n, pl, l.buffers)
}

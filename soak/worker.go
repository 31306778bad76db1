package soak

// A soak worker is a rank of the harness's launcher (harness.Rank,
// harness.RankMain) plus the scenario's fault plan: the driver compiles the
// plan onto one description per rank, and both cmd/fgsoak and the soak test
// binary route a re-exec'd copy of themselves through WorkerMain before
// doing anything else, so the worker image is whatever image the driver
// itself runs from.

import (
	"os"

	"github.com/fg-go/fg/internal/harness"
)

// WorkerResult is the structured outcome each rank reports to the driver.
type WorkerResult = harness.RankResult

// IsWorker reports whether this process was spawned as a soak worker.
func IsWorker() bool { return harness.IsRank() }

// WorkerMain runs this process as its described rank and returns the
// process exit code. Call it from main (or TestMain) before anything else
// when IsWorker() is true.
func WorkerMain() int {
	if dir := os.Getenv(CaptureEnv); dir != "" {
		defer captureFrames(dir)()
	}
	return harness.RankMain()
}

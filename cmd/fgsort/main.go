// Command fgsort runs one out-of-core sort — any program of the harness's
// program table — on a simulated cluster, prints the per-pass timings and
// traffic, and verifies the output.
//
// Usage:
//
//	fgsort -program dsort -nodes 16 -records 20 -dist poisson
//
// With -transport tcp the ranks talk over real sockets, and -peers/-rank
// place each rank in its own OS process:
//
//	fgsort -program csort -nodes 2 -transport tcp -rank 0 -peers 127.0.0.1:7000,127.0.0.1:7001 &
//	fgsort -program csort -nodes 2 -transport tcp -rank 1 -peers 127.0.0.1:7000,127.0.0.1:7001
//
// Adding -heartbeat, -checkpoint-dir, and -supervise makes a multi-process
// run survive node death: a kill -9'd rank is detected by heartbeats, the
// surviving ranks' supervisors retry, and a relaunched replacement rank
// resumes from the last pass-level checkpoint (see EXPERIMENTS.md for a
// full recipe).
//
// Either way the process runs the harness's one rank body; a rank a
// launcher described in a file (a soak trial keeps them in its run directory)
// is re-run by FGSOAK_WORKER_CONFIG=soak-runs/trial1/rank1.gen0.json fgsort.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/fg-go/fg/internal/harness"
)

func main() {
	if harness.IsRank() {
		os.Exit(harness.RankMain())
	}
	log.SetFlags(0)
	log.SetPrefix("fgsort: ")
	flags := harness.BindFlags(flag.CommandLine, 18, 2)
	flags.BindJob(flag.CommandLine)
	flag.Parse()

	job, pr, err := flags.Job()
	if err != nil {
		log.Fatal(err)
	}
	rank, code := harness.RunRank(job, pr, flags.Observe())
	if code != 0 {
		log.Print(rank.Error)
		os.Exit(code)
	}
	res := rank.Run
	fmt.Println(res)
	if pr.Verify {
		fmt.Println("output verified: globally sorted, PDM-striped, permutation of input")
	}
	data := pr.TotalRecords * int64(pr.RecordSize)
	fmt.Printf("disk:    %d ops, %d bytes (%.2fx the data), head busy %v\n",
		res.Disk.ReadOps+res.Disk.WriteOps, res.Disk.TotalBytes(),
		float64(res.Disk.TotalBytes())/float64(data), res.Disk.Busy.Round(time.Millisecond))
	fmt.Printf("network: %d messages, %d bytes sent, NICs busy %v, blocked sending %v / receiving %v\n",
		res.Comm.MessagesSent, res.Comm.BytesSent, res.Comm.SendBusy.Round(time.Millisecond),
		res.Comm.SendWait.Round(time.Millisecond), res.Comm.RecvWait.Round(time.Millisecond))
}

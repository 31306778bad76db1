// Package rules holds the design rules that keep this tree the paper's
// shape, as one table that go test checks: what a package may import,
// declare and name, which acceptance tests must exist, and the non-test
// line ceiling. The package has only test files, so it adds no non-test
// lines.
package rules

import "testing"

// mod prefixes this module's import paths.
const mod = "github.com/fg-go/fg/"

// table is every rule. A row names the packages it reads as directories
// relative to the module root: "x/..." is x and every directory below it,
// "..." is the whole tree, a "!" prefix drops what its pattern matches, and
// a path ending in .go is that one file. benchmark/ is a module of its own
// and never read.
var table = []struct {
	pkgs   []string
	rule   rule
	reason string
}{
	// The ratchet: a change that shrinks the tree lowers the ceiling to the
	// count it lands; one that raises it says in CHANGES.md what the lines buy.
	{[]string{"..."}, lines(16213),
		"16,180 → 16,213: dsort samples inside pass 1's send pipeline and reads the first pool-ful once: fig8-disk's dsort_sort_s 521.5 → 493.5 ms (medians of 10 fgbench pairs)"},

	// Nothing in the binaries exists only for tests.
	{[]string{"..."}, noImport("testing"),
		"a test assertion takes check.TB, which *testing.T satisfies: importing testing links it into every binary"},
	{[]string{"cluster", "soak"}, noName(`^(SetFrameObserver|CaptureEnv|WorkerMain|IsWorker)$`),
		"the FuzzFrameCodec seeds are checked-in files; a hook on the read path to harvest them, and soak wrappers to install it, are code no program runs"},

	// cluster ships records; fg and internal/metrics say what they mean.
	{[]string{"cluster"}, noJSONField("stage", "pipeline", "queue_len"),
		"a telemetry record's body is the rank's fg snapshot, opaque to cluster: derive a stage's fields in internal/metrics from it"},
	{[]string{"cluster"}, noImport("runtime/pprof"),
		"the telemetry plane only pushes: a process serves its own profiles at /debug/pprof/"},
	{[]string{"cluster"}, noName(`^telemetry\w+Tag$`),
		"one tag carries a rank's record, its stall black box included; a second tag is the deleted pull RPC"},
	{[]string{"cluster"}, atMost(1, "time.NewTicker", "time.Tick"),
		"heartbeats and telemetry records share the one control loop in health.go"},
	{[]string{"cluster"}, noMethod("Node", "SetFault", "checkFault"),
		"every comm fault goes through Cluster.SetNetFault at Transport.Deliver; a seam on Node puts a mutex on every Send and Recv"},
	{[]string{"cluster"}, noImport(mod+"fg/...", mod+"internal/metrics/..."),
		"cluster carries a record's body without reading it; internal/metrics fills it from fg and reads it"},

	// The binaries are cmd/'s.
	{[]string{"...", "!cmd/..."}, notPackage("main"),
		"a pipeline shape is an Example in fg/example_test.go, which go test runs and checks; a binary is compiled and never checked"},

	// dsort reads each input block it samples from once.
	{[]string{"dsort"}, noName(`^selectSplitters$`),
		"a sampling phase of its own reads the first pool-ful twice: pass 1's sample stage reads its samples in the held rounds in place"},

	// One verifier.
	{[]string{"internal/harness"}, noName(`^AllLocal$`),
		"every job verifies with check.Output, each rank on its own stripe; an AllLocal branch is the serial whole-cluster walk"},
	{[]string{"internal/check/distributed.go"}, noName(`^Export$`),
		"the verifier walks each stripe where it lies with pdm.Disk.View; Export copies it"},

	// A job spec describes a sort.
	{[]string{"service"}, noField("", "Fault", "Buffers", "MaxBuffers", "EnableFaults"),
		"the program picks its own buffers, and fgd's tests inject faults through Config.OnJobParams"},
	{[]string{"internal/harness"}, noField("Job", "Buffers"),
		"each program picks its own buffer pools (dsort.DefaultConfig, colsort.DefaultPipelineBuffers)"},

	// fg is the paper's runtime; internal/metrics is the one serving package.
	{[]string{"fg"}, noImport("net/http/...", "os", "path/filepath", "crypto/..."),
		"pass checkpoints persist in oocsort and internal/metrics serves; runtime/pprof stays, the watchdog labels goroutines with it"},
	{[]string{"fg"}, noAPIMention("MetricsRegistry", "Checkpoint", "PeerHealth", "EmitFunc"),
		"a registry, checkpoint or peer type in fg's API is persistence or serving growing back, with the mirror types that kept them apart"},
	{[]string{"internal/harness"}, noImport("net/http/..."),
		"the harness builds clusters and runs sorts and hands what it observes to a metrics.Registry, which serves it"},

	// Kernels run on their stage's goroutine; every fg edge is a channel.
	{[]string{"..."}, noImport(mod+"internal/parallel", mod+"internal/spsc"),
		"stand-ins kept only for benchmark/probes.go (ROADMAP 1(d)): a product caller brings back the worker pool or a second hand-off path"},

	// The acceptance tests. Tier-1 and CI run every test without -short;
	// these rows make a rename, a deletion or a skip fail instead of
	// dropping a test silently, and keep the names CI's -run, -bench and
	// -fuzz patterns select.
	{[]string{"cluster"}, tests("TestOwnedSendsArriveIntact", "TestOwnedSendNeverRecycledInFlight",
		"TestSendRecvReleaseSteadyStateAllocs", "TestTransportConformance", "FuzzFrameCodec"),
		"an owned send arrives byte-identical on both transports, is never recycled in flight and allocates nothing; both transports pass one conformance suite"},
	{[]string{"colsort"}, tests("TestTransposesMatchInMemorySpec", "TestOutputBytesAreTheParents"),
		"csort's transposes follow the in-memory specification, and its bytes are pinned across edits to the radix sort"},
	{[]string{"dsort"}, tests("TestChaosDsortHangTriggersWatchdog", "TestChaosDsortSlowDiskNoFalseStall",
		"TestOutputBytesAreTheParents", "TestSamplingAndRunsAreTheParents", "TestMergerMatchesExtentRuleByScan",
		"TestSamplingReadsThePoolOnce", "BenchmarkMergerFill"),
		"a hang names its stage and slow disks raise no false stall; dsort's partition and merge order are pinned by hash and by the scan rule; sampling reads no held round again"},
	{[]string{"fg"}, tests("TestForkBranchHangNamesCulprit"),
		"the watchdog names a stage parked inside a fork branch, the hang the sorts' shapes never produce"},
	{[]string{"internal/bufpool"}, tests("TestPutSurvivesCollections", "TestIdleClassIsFreed"),
		"a recycled slice survives collections, and a capacity nobody asks for is freed"},
	{[]string{"internal/harness"}, tests("TestSupervisedDsortSurvivesPeerDeathMidPass2",
		"TestCheckpointResumeSkipsCompletedPasses", "TestSecondJobReusesTheFirstJobsBuffers",
		"TestTwoProcessCsortTCP", "TestTwoProcessCsortTCPConnDropStall", "TestTwoProcessCsortTCPSlowNetworkNoFalseStall",
		"TestClusterTelemetryTwoProcessTCP", "TestClusterTelemetryRemoteStallDiagnosis",
		"TestLauncherReportsHowAChildEnded", "TestLauncherAdmitsReplacementAfterMarker"),
		"a peer death is survived from checkpoints, a second job reuses the first one's buffers, and two TCP processes sort, stall and report through the launcher"},
	{[]string{"internal/sortalgo"}, tests("BenchmarkSortRecords", "FuzzSortRecords"),
		"the radix sort's per-shape price and its byte-for-byte oracle"},
	{[]string{"mergetree"}, tests("TestBetterIsBeats", "FuzzTree"),
		"the tournament's borrow-mask winner is the key-then-leaf rule"},
	{[]string{"oocsort"}, tests("TestDirCheckpointRoundTrip", "TestDirCheckpointSaveReplaces",
		"TestDirCheckpointRejectsPathEscapes", "TestDirCheckpointTornSavesNeverValidate"),
		"every torn checkpoint reads as absent, a re-save replaces, and no name escapes the tree"},
	{[]string{"pdm"}, tests("TestRecycledExtentsReadZerosWhereUnwritten", "TestStorageComesBackOnlyTheDisks",
		"TestConcurrentDisksNeverShareStorage"),
		"recycled file extents read zeros where unwritten, come back only from the disks' own files, and are never shared"},
	{[]string{"records"}, tests("FuzzExtKeyRoundTrip", "FuzzFloatKeyOrder"),
		"record keys round-trip and order floats"},
	{[]string{"service"}, tests("FuzzJobSpec"),
		"a job spec crosses the daemon's trust boundary: error or valid, never a panic"},
	{[]string{"soak"}, tests("TestSoakSmoke", "FuzzScenarioPlan"),
		"a real kill -9 of one of two TCP ranks is survived end to end; a scenario plan never panics its decoder"},
}

func TestRules(t *testing.T) {
	tree, err := load("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range table {
		ps := pick(tree, r.pkgs)
		if len(ps) == 0 {
			t.Errorf("%v selects nothing: point the row at where the code went", r.pkgs)
			continue
		}
		for _, v := range r.rule.check(ps) {
			t.Errorf("%v must %s: %s\n\twhy: %s", r.pkgs, r.rule.what, v, r.reason)
		}
	}
}

// TestRulesFire holds each kind of rule to a source that breaks it, so a
// rule that has stopped reading what it should fails here, not silently.
func TestRulesFire(t *testing.T) {
	for _, c := range []struct {
		rule  rule
		src   string
		tests string
	}{
		{rule: lines(2), src: "package p\n\nvar x int\n"},
		{rule: noJSONField("stage"), src: "package p\ntype s struct{ X int `json:\"stage,omitempty\"` }"},
		{rule: noJSONField("stage"), src: "package p\nvar v struct{ Stage string }"},
		{rule: noImport("runtime/pprof", "crypto/..."), src: "package p\nimport _ \"crypto/sha256\""},
		{rule: noName(`^telemetry\w+Tag$`), src: "package p\nconst telemetryPullTag = 9"},
		{rule: atMost(1, "time.NewTicker", "time.Tick"),
			src: "package p\nimport clock \"time\"\nvar a, b = clock.NewTicker(1), clock.Tick(1)"},
		{rule: noMethod("Node", "SetFault"), src: "package p\ntype Node struct{}\nfunc (Node) SetFault() {}"},
		{rule: notPackage("main"), src: "package main"},
		{rule: noName(`^AllLocal$`), src: "package p\nfunc f(c interface{ AllLocal() bool }) func() bool { return c.AllLocal }"},
		{rule: noField("", "Buffers"), src: "package p\ntype spec struct{ Buffers, Extra int }"},
		{rule: noField("Job", "Buffers"), src: "package p\ntype Buffers int\ntype Job struct{ Buffers }"},
		{rule: noAPIMention("Checkpoint"), src: "package p\ntype N struct{}\nfunc (*N) Save(c interface{ Checkpoint() }) {}"},
		{rule: noAPIMention("EmitFunc"), src: "package p\ntype S struct{ On func(EmitFunc) }\ntype EmitFunc func()"},
		{rule: tests("TestGone"), src: "package p", tests: "package p\nfunc TestHere(t *testing.T) {}"},
		{rule: tests("TestA"), src: "package p", tests: "package p\n" +
			"func TestA(t *testing.T) { if testing.Short() { return }; needTCP(t) }\n" +
			"func needTCP(t *testing.T) { t.Skip() }"},
	} {
		p, err := parsePkg("p", c.src, c.tests)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.rule.check([]*pkg{p})) == 0 {
			t.Errorf("%s passes on\n%s\n%s", c.rule.what, c.src, c.tests)
		}
	}
}

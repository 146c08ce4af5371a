package main

import "time"

// Workload parameters are constants: a change to any of them is a change
// to the benchmark, recorded in README.md, never a flag.
const (
	// queriesPerBatch is the size of one POST /estimate/select/batch.
	queriesPerBatch = 1024
	// planShapes is the number of distinct /plan bodies a stream cycles
	// through; it fits the daemon's default plan cache many times over.
	planShapes = 32
	// kMax, sampleSize and gridSize are the daemon's default -maxk, -sample
	// and -grid; overMaxKShare of the select queries ask for more than kMax,
	// which takes the density fallback.
	kMax          = 1000
	sampleSize    = 200
	gridSize      = 10
	overMaxKShare = 0.05
	// checkEvery is the correctness sampling period: one response in this
	// many is compared bit-exactly with the in-process oracle.
	checkEvery = 64
	// subWindows is the number of equal slices a measured window is cut
	// into; throughput and p99 are medians over the slices.
	subWindows = 10
	// setupRepeats is how many times a run sets the daemon up from
	// scratch; setup_s is the median.
	setupRepeats = 5

	// ingest_mixed: an open-loop writer at writeRate mutations a second of
	// mutationPoints points each; an append is undone deleteLag batches
	// later so relation sizes stay steady. The issue proposed 60 mutations
	// a second of 32 points, expecting about 4 compactions a second. The
	// store compacts a relation when 512 points are pending or every 2 s,
	// and a mutation that arrives while its relation is compacting starts
	// the next compaction as soon as that one publishes. With 32-point
	// mutations that chain reaction decides how many compactions a window
	// sees: at 60 a second the two build workers never idle (8.6 compactions
	// a second) and the reader's throughput differs by a factor of two
	// between runs; at 8 a second it still differs by a seventh. Mutations
	// of mutationPoints = the compaction threshold make every mutation
	// trigger exactly one compaction: the same 2048 points and 4 compactions
	// a second the issue aimed at, the same number in every run.
	writeRate      = 4
	mutationPoints = 512
	// deleteLag, in batches: batch b is deleted right after batch b+deleteLag
	// is appended. Batches go round-robin over four relations, so a lag of 6
	// puts a relation's delete halfway between two of its appends: it gets
	// a mutation about every second, never two in quick succession.
	deleteLag = 6
	// compactThreshold mirrors the store default the daemon runs with.
	compactThreshold = 512

	// visiblePoll is how often the writer asks for a relation's status after
	// a mutation, until it sees the mutation compacted or visibleTimeout has
	// passed; it is the resolution of append_visible_p50_ms.
	visiblePoll    = 10 * time.Millisecond
	visibleTimeout = 3 * time.Second

	// lateLimit is how late the writer may hand a mutation to its connection
	// (median) for the run to count as having kept its schedule.
	lateLimit = 5 * time.Millisecond

	// ingest_mixed restarts ingestRestartCycles times, each time killed
	// right after a burst of burstMutations acknowledged mutations, whose
	// compactions the kill cuts short.
	ingestRestartCycles = 3
	burstMutations      = 8
	// ingestWarmup is ingest_mixed's lead-in, writer included: long enough
	// for compaction to reach its steady state.
	ingestWarmup = 2 * time.Second

	// traceBlock is the number of consecutive requests a connection of the
	// traced pass sends plain before it sends as many traced, and so on:
	// short, so that both kinds meet the same phases of the machine and,
	// in fleet_restart, every position after a restart.
	traceBlock = 32

	// connections is the number of load-generator connections; the box has
	// two cores and the issue caps connections at nproc.
	connections = 2

	// Hard limits: the contract gives a first run 900 s (it builds) and any
	// other 180 s; a run past runTimeout is killed with its daemons.
	buildTimeout   = 12 * time.Minute
	runTimeout     = 170 * time.Second
	setupTimeout   = 120 * time.Second
	requestTimeout = 30 * time.Second
)

// mixEntry is one request kind and its share of a closed-loop mix, by count.
type mixEntry struct {
	kind   reqKind
	weight int
}

// spec is the fixed shape of one workload.
type spec struct {
	name      string
	relations int
	points    int
	routed    bool
	mix       []mixEntry // closed-loop request mix of every reader connection
	writer    bool       // connection 1 is the open-loop writer
	why       string
}

var specs = []spec{
	{
		name: "point_mix", relations: 8, points: 20000,
		mix: []mixEntry{
			{kSelect, 60}, {kSelectDensity, 10}, {kJoinCatalogMerge, 10}, {kJoinVirtualGrid, 5},
			{kJoinAknn, 1}, {kJoinBlockSample, 1}, {kPlan, 13},
		},
		why: "one node, 8x20k points, 2 closed-loop connections, single-estimate mix: transport, middleware and service codec dominate",
	},
	{
		name: "batch_scan", relations: 2, points: 20000,
		mix: []mixEntry{{kBatch, 1}},
		why: "one node, 2x20k points, 2 closed-loop connections, 1024-query batches only: overhead amortised 1024x, so codec and core estimators dominate",
	},
	{
		name: "routed_mix", relations: 8, points: 20000, routed: true,
		mix: []mixEntry{{kSelect, 80}, {kJoinCatalogMerge, 10}, {kBatch, 10}},
		why: "router over 2 shard daemons (replicas 2), same requests: routed minus direct is the measured cost of the shard layer",
	},
	{
		name: "ingest_mixed", relations: 4, points: 20000, writer: true,
		mix: []mixEntry{{kSelect, 90}, {kPlan, 10}},
		why: "one node, 4x20k points, open-loop writer at 4x512 points/s beside a closed-loop reader: WAL, compaction and plan-cache invalidation contend with reads",
	},
	{
		name: "fleet_restart", relations: 100, points: 1000,
		why: "one node, 100x1k points (9,900 pair merges): SIGKILL and restart cycles where store restore, mmap and the cache layout do all the work",
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// Command perfbench is the repository's end-to-end benchmark. It deploys
// each cross-facility architecture (DTS, PRS(HAProxy), MSS) in-process on
// an unshaped fabric, drives it through the public AMQP client with a
// seeded single-process load generator, checks every message arrived
// exactly once and intact, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON line. See README.md.
//
//	go run . -workload ws-16k -seed 1 -seconds 30 -trace 0 -workdir /tmp/pb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix. Every workload runs all three
// architectures in turn, one producer and one consumer connection each.
type workload struct {
	name string
	// nodes is the broker cluster size; replicated adds federation,
	// durable queues (fsync interval) and replication factor 2.
	nodes      int
	replicated bool
	// feedback makes the consumer answer every request with a reply.
	feedback bool
	// Payloads: pool distinct opaque bodies of minSize..maxSize bytes.
	minSize, maxSize, pool int
	// window > 0 is a closed loop with that many messages (requests)
	// outstanding; otherwise an open loop publishes at rate msgs/s.
	window int
	rate   float64
}

var workloads = []*workload{
	// Work sharing (§5.3) at the Dstream batch size: per-message costs.
	{name: "ws-16k", nodes: 1, minSize: 12 << 10, maxSize: 20 << 10, pool: 64, window: 16},
	// Work sharing with feedback (§5.4) at the Lstream size: byte costs.
	{name: "feedback-1m", nodes: 1, feedback: true, minSize: 1 << 20, maxSize: 1 << 20, pool: 8, window: 8},
	// An edge instrument publishing on a fixed schedule into replicated
	// durable queues: the seglog and mirror write path.
	{name: "replicated-paced", nodes: 3, replicated: true, minSize: 16 << 10, maxSize: 16 << 10, pool: 64, rate: pacedRate},
}

const (
	// pacedRate is the replicated-paced schedule, about a sixth of the
	// slowest architecture's replicated capacity on two cores. Faster,
	// the segment-log write-back (rate × 16 KiB × 2 replicas) loads a
	// shared disk enough that the confirm latency's run-to-run spread
	// outgrows every bound. README.md has the figures.
	pacedRate = 1000
	// openLoopCap bounds published-but-unreceived messages in the open
	// loop, far below the queue limit.
	openLoopCap = 2048
	// setupRepeats: set-up is timed this many times per architecture
	// and reported as the median.
	setupRepeats = 9
	// warmup runs traffic on every deployment once before any slice is
	// measured, so pools, caches and the mirror catch-up settle.
	warmup = time.Second
	// The measured time is cut into slices that rotate over the
	// architectures, so each architecture's windows are spread over the
	// whole run and a slow spell on a shared machine hits all three
	// alike. A slice opens its own two connections, settles, measures
	// windowsPerSlice windows of window each, drains and closes.
	window          = 500 * time.Millisecond
	windowsPerSlice = 4
	sliceSettle     = 250 * time.Millisecond
	// drainTimeout bounds the wait for outstanding confirms and
	// deliveries after the producer stops.
	drainTimeout = 20 * time.Second
	// runDeadline is a watchdog below the 180 s budget of a run.
	runDeadline = 170 * time.Second
)

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runDeadline)
		os.Exit(2)
	})
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config is one invocation.
type config struct {
	w       *workload
	in      *inputs
	seed    int64
	rounds  int // slices per architecture and slice kind
	trace   bool
	workdir string
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ws-16k, feedback-1m or replicated-paced")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds, shared by the three architectures")
	trace := fs.Int("trace", 0, "1: half the slices traced; report per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench", "directory for durable queue data, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	kinds := 1 + *trace
	sliceSecs := int(windowsPerSlice * window / time.Second)
	rounds := *seconds / (sliceSecs * len(archs) * kinds)
	if w == nil || (*trace != 0 && *trace != 1) || rounds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := &config{w: w, in: newInputs(w, *seed), seed: *seed, rounds: rounds, trace: *trace == 1, workdir: *workdir}
	dataRoot := filepath.Join(cfg.workdir, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dataRoot)
	if cfg.trace {
		os.RemoveAll(cfg.profileDir()) // profiles of an earlier traced run
		if err := os.MkdirAll(cfg.profileDir(), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}

	runs := make([]*archRun, len(archs))
	for i, a := range archs {
		runs[i] = newArchRun(cfg, a, dataRoot)
	}
	for _, r := range runs {
		r.slice(cfg, warmupSlice)
	}
	for round := 0; round < cfg.rounds; round++ {
		for i := range runs {
			// Each round starts with the next architecture, so none of
			// them always gets the slices that follow a previous run's
			// teardown. Traced and untraced slices of one architecture run
			// back to back, alternating which goes first, so the tracing
			// overhead compares like with like.
			r := runs[(round+i)%len(runs)]
			if cfg.trace && round%2 == 1 {
				r.slice(cfg, tracedSlice)
			}
			r.slice(cfg, untracedSlice)
			if cfg.trace && round%2 == 0 {
				r.slice(cfg, tracedSlice)
			}
		}
	}
	for _, r := range runs {
		r.close()
	}

	rep := buildReport(cfg, runs)
	rep.print(out)
	if cfg.trace {
		path := filepath.Join(cfg.workdir, "spans-"+w.name+".csv")
		if err := writeSpans(path, runs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		} else {
			fmt.Fprintf(out, "spans: %s, cpu profiles: %s\n", path, cfg.profileDir())
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(out, string(line))
	if !rep.result.Correct {
		return 1
	}
	return 0
}

func (cfg *config) profileDir() string { return filepath.Join(cfg.workdir, "profiles-"+cfg.w.name) }

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	dsmetrics "ds2hpc/internal/metrics"
	"ds2hpc/internal/telemetry"
)

// Span kinds. Each kind's lane is appended to by exactly one goroutine:
// deploy and connect by main (set-up), late and publish by the producer,
// confirm by the confirm reader, receipt and ack by the consumer, round
// trip and reply-ack by the feedback reply reader.
const (
	spanDeploy = iota
	spanConnect
	spanLate
	spanPublish
	spanConfirm
	spanReceipt
	spanAck
	spanRoundTrip
	spanReplyAck
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"deploy", "connect", "late", "publish", "confirm",
	"receipt", "ack", "round_trip", "reply_ack"}

// span is one call into a layer, or one message's wait between two
// layers. Spans of one message share its sequence number.
type span struct {
	slice      int
	seq        uint64
	start, end int64 // UnixNano
}

// tracer records spans in memory for one architecture. Message spans
// are recorded only while on is set (traced slices); set-up and connect
// spans whenever the run is traced. A nil tracer records nothing.
type tracer struct {
	on    atomic.Bool
	slice int // set by main before a slice's goroutines start
	lanes [numSpanKinds][]span
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(kind int, seq uint64, start, end time.Time) {
	t.lanes[kind] = append(t.lanes[kind], span{t.slice, seq, start.UnixNano(), end.UnixNano()})
}

func (t *tracer) addSetup(kind int, start, end time.Time) {
	if t != nil {
		t.add(kind, 0, start, end)
	}
}

// durations returns the lanes' span durations pooled.
func (t *tracer) durations(kinds ...int) []time.Duration {
	var out []time.Duration
	for _, k := range kinds {
		for _, s := range t.lanes[k] {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes every architecture's spans as CSV
// (arch,slice,kind,seq,start_ns,end_ns).
func writeSpans(path string, runs []*archRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "arch,slice,kind,seq,start_ns,end_ns")
	for _, r := range runs {
		if r.tr == nil {
			continue
		}
		for k, lane := range r.tr.lanes {
			for _, s := range lane {
				fmt.Fprintf(bw, "%s,%d,%s,%d,%d,%d\n", r.arch.prefix, s.slice, spanNames[k], s.seq, s.start, s.end)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a snapshot of the program's two counter registries.
type counters struct {
	legacy map[string]uint64
	tel    *telemetry.Snapshot
}

func snapCounters() counters {
	return counters{legacy: dsmetrics.Default.Snapshot(), tel: telemetry.Default.Snapshot()}
}

// delta is the change of a named counter between two snapshots, looked
// up in both registries; a name with a "{" suffix family is summed.
func (a counters) delta(b counters, name string) float64 {
	if v, ok := b.legacy[name]; ok {
		return float64(v - a.legacy[name])
	}
	var d int64
	for k, v := range b.tel.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			d += v - a.tel.Counters[k]
		}
	}
	return float64(d)
}

// histDelta returns the samples a histogram gained between snapshots.
func (a counters) histDelta(b counters, name string) *telemetry.HistSnapshot {
	after := b.tel.Histograms[name]
	if after == nil {
		return &telemetry.HistSnapshot{}
	}
	before := map[int64]int64{}
	if h := a.tel.Histograms[name]; h != nil {
		for _, bk := range h.Buckets {
			before[bk.Upper] = bk.Count
		}
	}
	out := &telemetry.HistSnapshot{}
	for _, bk := range after.Buckets {
		if n := bk.Count - before[bk.Upper]; n > 0 {
			out.Buckets = append(out.Buckets, telemetry.Bucket{Upper: bk.Upper, Count: n})
			out.Count += n
		}
	}
	return out
}

// procSnap is the process-wide state read at window boundaries.
type procSnap struct {
	at       time.Time
	cpu      time.Duration // user+sys
	received uint64
	attempts uint64
	failures int64
	writes   int64 // client-side transport writes
	syscalls int64 // read+write syscalls (/proc/self/io syscr+syscw)
	mem      runtime.MemStats
}

func takeSnap(f *flow) procSnap {
	s := procSnap{
		at:       time.Now(),
		cpu:      processCPU(),
		received: f.received.Load(),
		attempts: f.published.Load(),
		failures: f.failures(),
		writes:   f.s.clientWrites.Load(),
		syscalls: ioSyscalls(),
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ioSyscalls reads syscr+syscw from /proc/self/io; -1 where the kernel
// does not expose it.
func ioSyscalls() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	var n int64
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if ok && (k == "syscr" || k == "syscw") {
			x, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			n += x
		}
	}
	return n
}

// gaugeMax is the highest value each sampled gauge reached.
type gaugeMax struct {
	heap, queueDepth, mirrorLag, underReplicated int64
}

func (g gaugeMax) merge(o gaugeMax) gaugeMax {
	return gaugeMax{max(g.heap, o.heap), max(g.queueDepth, o.queueDepth),
		max(g.mirrorLag, o.mirrorLag), max(g.underReplicated, o.underReplicated)}
}

// sampler polls the Go heap and the broker/cluster gauges every 10 ms
// through a slice's measured windows, keeping each window's maxima. The
// broker and cluster gauges are process-wide and keep counts from
// deployments torn down earlier in the run, so they are taken as the
// rise above their value when the slice starts.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	windows []gaugeMax
}

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func startSampler(m *meter, windows int) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), windows: make([]gaugeMax, windows)}
	go func() {
		defer close(s.done)
		samples := make([]metrics.Sample, len(heapMetrics))
		for i, name := range heapMetrics {
			samples[i].Name = name
		}
		mirrorLag := telemetry.Default.Gauge("cluster.mirror_lag")
		underRep := telemetry.Default.Gauge("cluster.underreplicated_queues")
		gauges := func() gaugeMax {
			return gaugeMax{
				queueDepth:      telemetry.Default.SumGauges("broker.queue_depth"),
				mirrorLag:       mirrorLag.Load(),
				underReplicated: underRep.Load(),
			}
		}
		base := gauges()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				i := int(now.Sub(m.start) / m.win)
				if now.Before(m.start) || i >= windows {
					continue
				}
				metrics.Read(samples)
				var heap int64
				for _, smp := range samples {
					heap += int64(smp.Value.Uint64())
				}
				g := gauges()
				s.windows[i] = s.windows[i].merge(gaugeMax{
					heap:            heap,
					queueDepth:      g.queueDepth - base.queueDepth,
					mirrorLag:       g.mirrorLag - base.mirrorLag,
					underReplicated: g.underReplicated - base.underReplicated,
				})
			}
		}
	}()
	return s
}

// finish stops the sampler and returns each window's maxima.
func (s *sampler) finish() []gaugeMax {
	close(s.stop)
	<-s.done
	return s.windows
}

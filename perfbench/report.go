package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricDef names a metric (without its architecture prefix) and its
// unit.
type metricDef struct{ name, unit string }

// archE2E are the end-to-end metrics reported per architecture.
var archE2E = []metricDef{
	{"msgs_per_s", "1/s"}, {"cpu_us_per_msg", "us"}, {"lat_p50_ms", "ms"}, {"lat_p90_ms", "ms"},
}

// layerDefs are the per-layer metrics reported per architecture from
// the traced slices; README.md maps each to the end-to-end metric it
// should move.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"e2e.lat_p99_ms", "ms"},
		{"core.deploy_ms", "ms"},
		{"amqp.connect_ms", "ms"},
		{"amqp.publish_p99_us", "us"},
		{"amqp.ack_p99_us", "us"},
		{"amqp.confirm_p50_ms", "ms"},
		{"amqp.confirm_p99_ms", "ms"},
		{"amqp.redirects", "count"},
		{"amqp.reconnects", "count"},
		{"wire.bufpool_hit_frac", "frac"},
		{"wire.frames_per_write", "count"},
		{"wire.loaned_bytes_end", "B"},
		{"broker.deliveries_per_batch", "count"},
		{"broker.acks_per_batch", "count"},
		{"broker.queue_depth_peak", "count"},
		{"broker.requeued", "count"},
		{"seglog.bytes_per_payload_byte", "B/B"},
		{"seglog.fsyncs", "count"},
		{"seglog.fsync_p99_ms", "ms"},
		{"cluster.fed_msgs_per_publish", "count"},
		{"cluster.mirror_lag_max", "count"},
		{"cluster.underreplicated_max", "count"},
		{"transport.relay_bytes_per_payload_byte", "B/B"},
		{"transport.client_writes_per_msg", "count"},
		{"proc.syscalls_per_msg", "count"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l + "_us_per_msg", "us"})
	}
	return append(defs,
		metricDef{"runtime.alloc_bytes_per_msg", "B"},
		metricDef{"runtime.allocs_per_msg", "count"},
		metricDef{"runtime.gc_per_1k_msgs", "count"},
		metricDef{"gen.late_p99_ms", "ms"},
	)
}()

// layerValues computes the per-layer metrics of one architecture from
// its traced slices: span percentiles, counter ratios over whole slices,
// and per-message figures over the measured windows.
func (r *archRun) layerValues() map[string]float64 {
	a := &r.acc[tracedSlice]
	msgs := float64(a.msgs)
	d := func(name string) float64 { return a.counters[name] }
	pay := float64(a.payload)
	tr := r.tr
	v := map[string]float64{
		"e2e.lat_p99_ms":                         median(r.acc[untracedSlice].blockP99),
		"core.deploy_ms":                         msOf(quantile(tr.durations(spanDeploy), 0.5)),
		"amqp.connect_ms":                        msOf(quantile(tr.durations(spanConnect), 0.5)),
		"amqp.publish_p99_us":                    usOf(quantile(tr.durations(spanPublish), 0.99)),
		"amqp.ack_p99_us":                        usOf(quantile(tr.durations(spanAck, spanReplyAck), 0.99)),
		"amqp.confirm_p50_ms":                    msOf(quantile(tr.durations(spanConfirm), 0.5)),
		"amqp.confirm_p99_ms":                    msOf(quantile(tr.durations(spanConfirm), 0.99)),
		"amqp.redirects":                         d("amqp.redirects"),
		"amqp.reconnects":                        d("amqp.reconnects"),
		"wire.bufpool_hit_frac":                  ratio(d("wire.bufpool_hits"), d("wire.bufpool_hits")+d("wire.bufpool_misses")),
		"wire.frames_per_write":                  ratio(d("wire.frames_coalesced"), d("wire.coalesced_writes")),
		"wire.loaned_bytes_end":                  float64(r.loanedEnd),
		"broker.deliveries_per_batch":            ratio(d("broker.deliveries_batched"), d("broker.delivery_batches")),
		"broker.acks_per_batch":                  ratio(d("broker.acks_batched"), d("broker.ack_batches")),
		"broker.queue_depth_peak":                float64(a.gauges.queueDepth),
		"broker.requeued":                        d("broker.requeued"),
		"seglog.bytes_per_payload_byte":          ratio(d("seglog.appended_bytes"), pay),
		"seglog.fsyncs":                          float64(a.fsync.Count),
		"seglog.fsync_p99_ms":                    float64(a.fsync.Quantile(99)) / 1e6,
		"cluster.fed_msgs_per_publish":           ratio(d("cluster.federation_msgs"), float64(a.published)),
		"cluster.mirror_lag_max":                 float64(a.gauges.mirrorLag),
		"cluster.underreplicated_max":            float64(a.gauges.underReplicated),
		"transport.relay_bytes_per_payload_byte": ratio(d(relayCounter), pay),
		"transport.client_writes_per_msg":        ratio(float64(a.writes), msgs),
		"proc.syscalls_per_msg":                  ratio(float64(a.syscalls), msgs),
		"runtime.alloc_bytes_per_msg":            ratio(float64(a.allocBytes), msgs),
		"runtime.allocs_per_msg":                 ratio(float64(a.allocs), msgs),
		"runtime.gc_per_1k_msgs":                 ratio(1000*float64(a.gcs), msgs),
		"gen.late_p99_ms":                        msOf(quantile(tr.durations(spanLate), 0.99)),
	}
	for _, l := range cpuLayers {
		v["cpu."+l+"_us_per_msg"] = ratio(float64(r.cpu[l])/1e3, msgs)
	}
	return v
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the human-readable report plus the JSON result.
type report struct {
	lines  []string
	result result
}

func (rep *report) printf(format string, args ...any) {
	rep.lines = append(rep.lines, fmt.Sprintf(format, args...))
}

func (rep *report) print(w io.Writer) {
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
}

// buildReport computes the reported metrics: the end-to-end metrics from
// the untraced slices, and with tracing the per-layer metrics from the
// traced slices, the CPU split and the tracing overhead (traced minus
// untraced).
func buildReport(cfg *config, runs []*archRun) *report {
	rep := &report{result: result{Correct: true, Metrics: map[string]metric{}}}
	set := func(name, unit string, v float64) { rep.result.Metrics[name] = metric{v, unit} }
	rep.printf("perfbench workload=%s seed=%d rounds=%d slice=%dx%s trace=%t",
		cfg.w.name, cfg.seed, cfg.rounds, windowsPerSlice, window, cfg.trace)

	var setupS, peakHeap, tracedHeap float64
	for _, r := range runs {
		p := r.arch.prefix
		var took []float64
		for _, d := range r.setup {
			took = append(took, d.Seconds())
		}
		setupS += median(took)
		rep.result.Attempted += r.attempted
		rep.result.Failed += r.failed
		for _, f := range r.failures {
			rep.printf("FAIL %s: %s", p, f)
		}
		for _, v := range r.violations {
			rep.printf("FAIL %s: %s", p, v)
		}
		if len(r.violations) > 0 {
			rep.result.Correct = false
		}
		if r.err != nil {
			continue
		}
		u := &r.acc[untracedSlice]
		rate, cpu, p50, p90, heap, n := u.e2e()
		for i, v := range []float64{rate, cpu, p50, p90} {
			set(p+"."+archE2E[i].name, archE2E[i].unit, v)
		}
		rep.printf("%s: %.1f msgs/s, %.2f us cpu/msg, latency p50 %.3f ms p90 %.3f ms p99 %.3f ms (n=%d), %d msgs in %d windows, setup median %.4f s",
			p, rate, cpu, p50, p90, median(u.blockP99), n, u.msgs, len(u.windows), median(took))
		rep.printf("  %s window msgs/s: %s", p, fmtFloats(u.column(func(w windowStat) float64 { return w.rate })))
		peakHeap = math.Max(peakHeap, heap)
		_, _, _, _, theap, _ := r.acc[tracedSlice].e2e()
		tracedHeap = math.Max(tracedHeap, theap)
	}
	if rep.result.Failed > 0 {
		rep.result.Correct = false
	}
	okFrac := 1 - ratio(float64(rep.result.Failed), float64(rep.result.Attempted))
	rep.printf("setup_s %.4f s, ok_frac %.6f (%d failed of %d attempted), peak_heap_mb %.2f MB",
		setupS, okFrac, rep.result.Failed, rep.result.Attempted, peakHeap)
	if !cfg.trace {
		set("setup_s", "s", setupS)
		set("ok_frac", "frac", okFrac)
		set("peak_heap_mb", "MB", peakHeap)
		return rep
	}

	// Traced run: the JSON carries the per-layer metrics only.
	rep.result.Metrics = map[string]metric{}
	rep.printf("tracing overhead (traced minus untraced slices, interleaved):")
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		p := r.arch.prefix
		u, t := &r.acc[untracedSlice], &r.acc[tracedSlice]
		ur, uc, u50, u90, _, _ := u.e2e()
		tr, tc, t50, t90, _, _ := t.e2e()
		rep.printf("  %s: msgs_per_s %+.1f, cpu_us_per_msg %+.2f, lat_p50_ms %+.3f, lat_p90_ms %+.3f, ok_frac %+.6f",
			p, tr-ur, tc-uc, t50-u50, t90-u90, t.okFrac()-u.okFrac())
		vals := r.layerValues()
		for _, m := range layerDefs {
			set(p+"."+m.name, m.unit, vals[m.name])
		}
		var total int64
		for _, ns := range r.cpu {
			total += ns
		}
		var split []string
		for _, l := range cpuLayers {
			split = append(split, fmt.Sprintf("%s %.1f%%", l, 100*ratio(float64(r.cpu[l]), float64(total))))
		}
		rep.printf("  %s cpu split (%.2f s sampled, %.1f%% assigned to a named layer, cpu.other %.1f%%): %s",
			p, float64(total)/1e9, 100-100*ratio(float64(r.cpu["other"]), float64(total)),
			100*ratio(float64(r.cpu["other"]), float64(total)), strings.Join(split, ", "))
	}
	rep.printf("  peak_heap_mb %+.2f; setup_s: no untraced counterpart (set-up spans only bracket the calls)",
		tracedHeap-peakHeap)
	return rep
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(s, " ")
}

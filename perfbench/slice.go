package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// sliceKind says what a slice is for. Measured kinds index archRun.acc.
type sliceKind int

const (
	untracedSlice sliceKind = iota
	tracedSlice
	warmupSlice
)

// archRun is one architecture for the whole run: its deployment, which
// stays up from set-up to the end, and what its slices measured.
type archRun struct {
	arch  arch
	dep   core.Deployment
	tr    *tracer
	err   error // set-up failure: nothing was measured
	setup []time.Duration

	acc    [2]phaseAcc // untraced, traced
	slices int

	attempted  uint64   // publishes over every slice, warm-up included
	failed     int64    // failed operations, lost and unconfirmed included
	failures   []string // what failed
	violations []string // failed layer-engagement checks and tracing errors
	loanedEnd  int64    // wire.LoanedBytes after teardown
	cpu        map[string]int64
}

func newArchRun(cfg *config, a arch, dataRoot string) *archRun {
	r := &archRun{arch: a, cpu: map[string]int64{}}
	if cfg.trace {
		r.tr = &tracer{}
	}
	r.dep, r.setup, r.err = setupArch(a, cfg.w, dataRoot, r.tr)
	if r.err != nil {
		r.attempted++
		r.fail(r.err.Error())
	}
	return r
}

func (r *archRun) fail(what string) {
	r.failed++
	r.failures = append(r.failures, what)
}

// close tears the deployment down.
func (r *archRun) close() {
	if r.dep != nil {
		r.dep.Close()
		r.dep = nil
		r.loanedEnd = wire.LoanedBytes()
	}
}

// slice runs one slice: open a session, run the flow through the settle
// time and the measured windows, drain, close, and check the outcome.
func (r *archRun) slice(cfg *config, kind sliceKind) {
	if r.err != nil {
		return
	}
	n, settle := windowsPerSlice, sliceSettle
	if kind == warmupSlice {
		n, settle = 0, warmup
	}
	traced := kind == tracedSlice
	r.slices++
	if r.tr != nil {
		r.tr.slice = r.slices
	}
	before := snapCounters()
	s, err := openSession(r.dep, cfg.w, r.tr)
	if err != nil {
		r.attempted++
		r.fail(err.Error())
		return
	}
	m := &meter{win: window, lat: make([][]time.Duration, n)}
	f := newFlow(cfg.w, cfg.in, s, m, r.tr)
	m.start = time.Now().Add(settle)
	f.start()
	smp := startSampler(m, n)
	var prof bytes.Buffer
	var windowsStart, windowsEnd counters
	snaps := make([]procSnap, 0, n+1)
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(m.start.Add(time.Duration(k) * m.win)))
		snaps = append(snaps, takeSnap(f))
		if k == 0 {
			windowsStart = snapCounters()
		}
		if k == n {
			windowsEnd = snapCounters()
		}
		if traced && k == 0 {
			r.tr.on.Store(true)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				r.violations = append(r.violations, "cpu profile: "+err.Error())
			}
		}
	}
	if traced {
		pprof.StopCPUProfile()
		r.tr.on.Store(false)
	}
	gauges := smp.finish()
	f.drain(drainTimeout)
	s.close()
	f.wg.Wait()

	r.account(f)
	if relay := windowsStart.delta(windowsEnd, relayCounter); r.arch.prefix == "dts" && relay != 0 {
		r.violations = append(r.violations, fmt.Sprintf("layer not engaged: relay-tier bytes %.0f on DTS, want 0", relay))
	}
	after := r.checkEngagement(cfg.w, before, f)
	if kind == warmupSlice {
		return
	}
	r.acc[kind].add(snaps, m.lat, gauges, before, after, f)
	if traced {
		path := filepath.Join(cfg.profileDir(), fmt.Sprintf("%s-%02d.pprof", r.arch.prefix, r.slices))
		if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
			r.violations = append(r.violations, "cpu profile: "+err.Error())
		}
		cpu, err := cpuByLayer(prof.Bytes())
		if err != nil {
			r.violations = append(r.violations, err.Error())
		}
		for l, ns := range cpu {
			r.cpu[l] += ns
		}
	}
}

// account adds the slice's failures: nacks, returns, publish errors,
// duplicates and corrupt bodies as counted, plus every message never
// confirmed or never received by the end of the drain.
func (r *archRun) account(f *flow) {
	add := func(n int64, what string) {
		if n > 0 {
			r.failed += n
			r.failures = append(r.failures, fmt.Sprintf("%d %s", n, what))
		}
	}
	p := f.published.Load()
	r.attempted += p
	add(f.nacked.Load(), "nacked")
	add(f.returned.Load(), "returned")
	add(f.pubErrs.Load(), "publish errors")
	add(f.dups.Load(), "duplicated")
	add(f.corrupt.Load(), "corrupted or misdirected")
	add(int64(p)-int64(f.confirmed.Load()), "unconfirmed at the end")
	add(int64(p)-int64(f.received.Load()), "lost")
}

// relayCounter is the tagged relay-tier byte family (tier=prs on the
// SciStream S2DS hops, tier=mss on the MSS load balancer).
const relayCounter = "transport.relay_tier_bytes"

// checkEngagement verifies a slice went through the layers it is meant
// to measure, so a change cannot get faster by skipping one: relay tiers
// carry at least the payload on PRS and MSS, and on replicated-paced the
// segment logs hold the payload and the mirror stream carries every
// publish. (That DTS relays nothing is checked over its measured
// windows, since a previous slice's relays may still charge their close
// handshakes as a DTS slice opens.) Relays charge some bytes only when a
// copy ends, so on PRS and MSS it polls until the relay count is met and
// steady. It returns the final counter snapshot.
func (r *archRun) checkEngagement(w *workload, before counters, f *flow) counters {
	pay, pubs := float64(f.payload.Load()), float64(f.published.Load())
	relayed := r.arch.prefix != "dts"
	deadline := time.Now().Add(5 * time.Second)
	prev := -1.0
	for {
		c := snapCounters()
		var bad []string
		relay := before.delta(c, relayCounter)
		if relayed && relay < pay {
			bad = append(bad, fmt.Sprintf("relay-tier bytes %.0f < payload bytes %.0f", relay, pay))
		}
		if w.replicated {
			if b := before.delta(c, "seglog.appended_bytes"); b < pay {
				bad = append(bad, fmt.Sprintf("seglog bytes %.0f < payload bytes %.0f", b, pay))
			}
			if m := before.delta(c, "cluster.federation_msgs"); m < pubs {
				bad = append(bad, fmt.Sprintf("federation msgs %.0f < publishes %.0f", m, pubs))
			}
		}
		done := len(bad) == 0 && (!relayed || relay == prev)
		if done || time.Now().After(deadline) {
			for _, b := range bad {
				r.violations = append(r.violations, "layer not engaged: "+b)
			}
			return c
		}
		prev = relay
		time.Sleep(10 * time.Millisecond)
	}
}

// accCounters are the counters whose per-slice deltas feed the per-layer
// metrics.
var accCounters = []string{
	"amqp.redirects", "amqp.reconnects",
	"wire.bufpool_hits", "wire.bufpool_misses", "wire.frames_coalesced", "wire.coalesced_writes",
	"broker.deliveries_batched", "broker.delivery_batches", "broker.acks_batched", "broker.ack_batches",
	"broker.requeued", "seglog.appended_bytes", "cluster.federation_msgs", relayCounter,
}

// windowStat is one measured window.
type windowStat struct {
	rate, cpuUs, p50Ms, heapMB float64
	samples                    int
}

// tailBlock is the block size of the latency tail: lat_p90_ms is the
// median, over blocks of tailBlock consecutive samples, of each block's
// p90, and e2e.lat_p99_ms (traced runs only) the same with each block's
// p99. A shared machine stalls now and then for a few milliseconds, and
// in an open loop a stall delays every message due during it. A pooled
// tail follows those stalls; so does a per-block p99 on replicated-paced,
// whose blocks span 100 ms, so its run-to-run spread outgrows any usable
// bound (README.md has the figures).
const tailBlock = 100

// phaseAcc accumulates one kind of measured slice of one architecture.
// Window figures cover the measured windows; counter deltas, payload
// and publishes cover whole slices, set-up to teardown of the session.
type phaseAcc struct {
	windows                 []windowStat
	blockP90, blockP99      []float64 // ms, one per tailBlock latency samples
	msgs, attempts          uint64
	failures                int64
	writes, syscalls        int64
	allocBytes, allocs, gcs uint64
	gauges                  gaugeMax // maxima over every window
	counters                map[string]float64
	fsync                   telemetry.HistSnapshot
	payload                 int64
	published               uint64
}

func (a *phaseAcc) add(snaps []procSnap, lat [][]time.Duration, g []gaugeMax, before, after counters, f *flow) {
	for i, l := range lat {
		x, y := snaps[i], snaps[i+1]
		n := float64(y.received - x.received)
		a.windows = append(a.windows, windowStat{
			rate:    n / y.at.Sub(x.at).Seconds(),
			cpuUs:   ratio(float64(y.cpu-x.cpu)/1e3, n),
			p50Ms:   msOf(quantile(l, 0.50)),
			heapMB:  float64(g[i].heap) / (1 << 20),
			samples: len(l),
		})
		a.gauges = a.gauges.merge(g[i])
	}
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	for i := 0; i+tailBlock <= len(all); i += tailBlock {
		block := all[i : i+tailBlock]
		a.blockP90 = append(a.blockP90, msOf(quantile(block, 0.90)))
		a.blockP99 = append(a.blockP99, msOf(quantile(block, 0.99)))
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	a.msgs += last.received - first.received
	a.attempts += last.attempts - first.attempts
	a.failures += last.failures - first.failures
	a.writes += last.writes - first.writes
	a.syscalls += last.syscalls - first.syscalls
	a.allocBytes += last.mem.TotalAlloc - first.mem.TotalAlloc
	a.allocs += last.mem.Mallocs - first.mem.Mallocs
	a.gcs += uint64(last.mem.NumGC - first.mem.NumGC)
	if a.counters == nil {
		a.counters = map[string]float64{}
	}
	for _, name := range accCounters {
		a.counters[name] += before.delta(after, name)
	}
	a.fsync.Merge(before.histDelta(after, "seglog.fsync_ns"))
	a.payload += f.payload.Load()
	a.published += f.published.Load()
}

// column returns one field of every window.
func (a *phaseAcc) column(field func(windowStat) float64) []float64 {
	out := make([]float64, len(a.windows))
	for i, w := range a.windows {
		out[i] = field(w)
	}
	return out
}

// e2e returns the end-to-end figures: medians over the windows, and
// for the p90 over the latency blocks.
func (a *phaseAcc) e2e() (msgsPerS, cpuUs, p50, p90, heapMB float64, samples int) {
	for _, w := range a.windows {
		samples += w.samples
	}
	return median(a.column(func(w windowStat) float64 { return w.rate })),
		median(a.column(func(w windowStat) float64 { return w.cpuUs })),
		median(a.column(func(w windowStat) float64 { return w.p50Ms })),
		median(a.blockP90),
		median(a.column(func(w windowStat) float64 { return w.heapMB })),
		samples
}

// okFrac is the share of the windows' attempted publishes that did not
// fail (lost and unconfirmed messages are only known per slice).
func (a *phaseAcc) okFrac() float64 {
	return 1 - ratio(float64(a.failures), float64(a.attempts))
}

package main

import (
	"bytes"
	"hash/crc32"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestSampleLayerTable pins the pprof-sample → layer mapping: the
// innermost repo frame decides, crypto/* inside it is TLS, telemetry
// and metrics frames pass to their caller, and background GC is gc.
func TestSampleLayerTable(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memmove", "ds2hpc/internal/wire.(*Writer).AppendRawFrame", "ds2hpc/internal/amqp.(*Connection).writeContent"}, "wire"},
		{[]string{"ds2hpc/internal/broker.(*Queue).Publish", "ds2hpc/internal/broker.(*Channel).onContent"}, "broker"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "ds2hpc/internal/broker/seglog.(*Log).sync"}, "seglog"},
		{[]string{"ds2hpc/internal/cluster.(*fedLink).forward"}, "cluster"},
		{[]string{"ds2hpc/internal/amqp.(*Channel).Publish", "main.(*flow).produce"}, "amqp"},
		{[]string{"internal/poll.splice", "net.(*TCPConn).ReadFrom", "ds2hpc/internal/transport.(*countingWriter).ReadFrom", "ds2hpc/internal/transport.RelayCtx"}, "transport"},
		{[]string{"ds2hpc/internal/netem.(*Conn).Write", "ds2hpc/internal/wire.(*Writer).FlushFrames"}, "transport"},
		{[]string{"ds2hpc/internal/scistream.(*mux).readLoop"}, "scistream"},
		{[]string{"ds2hpc/internal/mss.(*LoadBalancer).handle"}, "mss"},
		{[]string{"crypto/aes.gcmAesEnc", "crypto/tls.(*Conn).Write", "ds2hpc/internal/wire.(*Writer).FlushFrames"}, "tls"},
		{[]string{"ds2hpc/internal/tlsutil.SelfSigned"}, "tls"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "ds2hpc/internal/broker.newMessage"}, "broker"},
		{[]string{"sync/atomic.(*Int64).Add", "ds2hpc/internal/telemetry.(*Counter).Add", "ds2hpc/internal/broker.(*Queue).deliver"}, "broker"},
		{[]string{"ds2hpc/internal/metrics.(*Counter).Inc", "ds2hpc/internal/wire.getBuf"}, "wire"},
		{[]string{"ds2hpc/internal/telemetry.(*Aggregator).tick"}, "other"},
		{[]string{"hash/crc32.ieeeCLMUL", "main.(*inputs).verify", "main.(*flow).consume"}, "bench"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, "other"},
		{[]string{"ds2hpc/internal/core.DeployDTS"}, "other"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	for _, l := range packageLayers {
		found := false
		for _, want := range cpuLayers {
			found = found || l == want
		}
		if !found {
			t.Errorf("package layer %q is not a reported cpu.* bucket", l)
		}
	}
}

func TestPackagePath(t *testing.T) {
	for in, want := range map[string]string{
		"broker/seglog.(*Log).Append":   "broker/seglog",
		"wire.getBuf":                   "wire",
		"amqp.(*Channel).Publish.func1": "amqp",
	} {
		if got := packagePath(in); got != want {
			t.Errorf("packagePath(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseProfile decodes a real CPU profile from runtime/pprof and
// finds the test's own busy loop in it, charged to the bench layer.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	var found bool
	for _, s := range samples {
		if s.cpuNs <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample without time or stack: %+v", s)
		}
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, "perfbench.burnCPU")
		}
	}
	if !found {
		t.Error("burnCPU not in any decoded stack")
	}
	byLayer, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if byLayer["bench"] == 0 {
		t.Errorf("no CPU charged to bench: %v", byLayer)
	}
}

var burnSink uint32

//go:noinline
func burnCPU(d time.Duration) {
	b := make([]byte, 1<<16)
	for end := time.Now().Add(d); time.Now().Before(end); {
		burnSink += crc32.ChecksumIEEE(b)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage accepted")
	}
}

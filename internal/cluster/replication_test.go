package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// startReplicated launches a 3-node cluster with replication factor 2
// (every durable queue gets one synchronous mirror) on per-node data
// directories under dir, fsync=always so a confirm implies durable.
func startReplicated(t *testing.T, dir string) *Cluster {
	t.Helper()
	c, err := StartWithOptions(3, Options{Federation: true, ReplicationFactor: 2}, func(int) broker.Config {
		return broker.Config{DataDir: dir, Durability: seglog.Options{Fsync: seglog.FsyncAlways}}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitGauge polls a telemetry gauge until its delta from base reaches
// want.
func waitGauge(t *testing.T, g *telemetry.Gauge, base, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Load()-base < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, g.Load()-base, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// publishConfirmed publishes n identified durable messages to qname via
// the cluster's address for it and waits for every confirm. With a
// replicated queue in sync, each confirm certifies the record is
// appended on the master AND its mirror.
func publishReplicated(t *testing.T, c *Cluster, qname string, n int) {
	t.Helper()
	prod, err := amqp.DialConfig("amqp://"+c.AddrFor(qname), amqp.Config{Reconnect: testReconnect, Seeds: c.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	pch, _ := prod.Channel()
	if _, err := pch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := pch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := pch.NotifyPublish(make(chan amqp.Confirmation, n))
	for i := 0; i < n; i++ {
		if err := pch.Publish("", qname, false, false, amqp.Publishing{
			MessageID: fmt.Sprintf("m-%d", i), Body: []byte("replicated"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case conf := <-confirms:
			if !conf.Ack {
				t.Fatalf("publish %d nacked", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("confirm %d missing", i)
		}
	}
}

// drainAll consumes from qname on the given node until n distinct
// MessageIDs arrive.
func drainAll(t *testing.T, c *Cluster, node int, qname string, n int) {
	t.Helper()
	cons, err := amqp.Dial("amqp://" + c.Node(node).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	cch, _ := cons.Channel()
	dc, err := cch.Consume(qname, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case d := <-dc:
			got[d.MessageID] = true
		case <-timeout:
			t.Fatalf("drained %d of %d confirmed messages", len(got), n)
		}
	}
}

// denyDir makes a node's data directory unreadable, so any failover that
// tried to relocate (or even list) the dead node's segment logs would
// error instead of silently falling back to shared-storage semantics.
func denyDir(t *testing.T, dir string, node int) {
	t.Helper()
	nodeDir := filepath.Join(dir, fmt.Sprintf("node-%d", node))
	if err := os.Chmod(nodeDir, 0o000); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(nodeDir, 0o755) })
}

// TestReplicatedKillPromotesMirror is the headline replication guarantee:
// kill a replicated queue's master with the dead node's data directory
// made unreadable first — the failover must complete by promoting the
// in-sync mirror from the surviving node's own disk (zero segment-log
// relocation) and every confirmed message must survive.
func TestReplicatedKillPromotesMirror(t *testing.T) {
	dir := t.TempDir()
	c := startReplicated(t, dir)

	insync := telemetry.Default.Gauge("cluster.insync_mirrors")
	insyncBase := insync.Load()
	promoted := telemetry.Default.Counter("cluster.promotions")
	promBase := promoted.Load()

	qname := queueOwnedBy(t, c, 1, "repl-q")
	// Declare first so the mirror exists and is in sync before the
	// publishes: every confirm below is then replication-gated.
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors")

	const n = 10
	publishReplicated(t, c, qname, n)

	// The dead node's disk is gone as far as the failover is concerned.
	denyDir(t, dir, 1)
	moved, err := c.Kill(1)
	if err != nil {
		t.Fatalf("Kill with unreadable dead dir: %v", err)
	}
	newMaster := -1
	for _, q := range moved {
		if q.Name == qname {
			newMaster = q.Node
		}
	}
	if newMaster < 0 || newMaster == 1 {
		t.Fatalf("queue %s not reassigned by Kill (moved=%v)", qname, moved)
	}
	if got := promoted.Load() - promBase; got < 1 {
		t.Fatalf("promotions delta = %d, want >= 1 (failover did not promote the mirror)", got)
	}
	drainAll(t, c, newMaster, qname, n)
}

// TestReplicatedDoubleKill chases the data: kill the master, wait for
// the promoted mirror to re-replicate onto the last survivor (a
// mid-stream catch-up resync), then kill the promoted master too. Two
// promotions, both dead directories unreadable, zero confirmed loss.
func TestReplicatedDoubleKill(t *testing.T) {
	dir := t.TempDir()
	c := startReplicated(t, dir)

	insync := telemetry.Default.Gauge("cluster.insync_mirrors")
	insyncBase := insync.Load()
	promoted := telemetry.Default.Counter("cluster.promotions")
	promBase := promoted.Load()
	catchups := telemetry.Default.Counter("cluster.mirror_catchups")
	cuBase := catchups.Load()

	qname := queueOwnedBy(t, c, 0, "double-q")
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors")

	const n = 10
	publishReplicated(t, c, qname, n)

	denyDir(t, dir, 0)
	moved, err := c.Kill(0)
	if err != nil {
		t.Fatalf("first Kill: %v", err)
	}
	second := -1
	for _, q := range moved {
		if q.Name == qname {
			second = q.Node
		}
	}
	if second < 0 {
		t.Fatalf("queue %s not reassigned (moved=%v)", qname, moved)
	}
	// The promoted master re-mirrors onto the remaining survivor — a
	// catch-up resync of the full history, since the replica starts
	// empty while the promoted log already holds every record.
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors after first failover")
	if got := catchups.Load() - cuBase; got < 1 {
		t.Fatalf("mirror_catchups delta = %d, want >= 1 (survivor never resynced)", got)
	}

	denyDir(t, dir, second)
	moved, err = c.Kill(second)
	if err != nil {
		t.Fatalf("second Kill: %v", err)
	}
	last := -1
	for _, q := range moved {
		if q.Name == qname {
			last = q.Node
		}
	}
	if last < 0 || last == second || last == 0 {
		t.Fatalf("queue %s not reassigned to the last survivor (moved=%v)", qname, moved)
	}
	if got := promoted.Load() - promBase; got != 2 {
		t.Fatalf("promotions delta = %d, want 2 (one per kill)", got)
	}
	drainAll(t, c, last, qname, n)
}

// TestRestartRejoinsAsMirror: a killed replicated master restarted into
// the cluster re-enters the queue's replica set as a catching-up mirror
// (the replication manager reconciles the ring change), restoring the
// declared factor without disturbing the promoted master.
func TestRestartRejoinsAsMirror(t *testing.T) {
	dir := t.TempDir()
	c := startReplicated(t, dir)

	insync := telemetry.Default.Gauge("cluster.insync_mirrors")
	insyncBase := insync.Load()

	qname := queueOwnedBy(t, c, 2, "rejoin-mirror-q")
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors")

	const n = 6
	publishReplicated(t, c, qname, n)
	if _, err := c.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Promotion moved the queue; the survivors re-sync a mirror.
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors after failover")

	if err := c.Restart(2); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// With all three nodes back, reconciliation may re-home the mirror
	// onto the restarted node; either way the queue must stay fully
	// replicated and its history drainable from the current master.
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors after rejoin")
	drainAll(t, c, c.OwnerOf(qname), qname, n)
}

// flakyMaster accepts link connections: the first dropFirst connections
// complete the handshake, swallow one basic.publish, and drop the
// connection without acking — a mid-forward link failure. Later
// connections ack everything (fakeMaster).
func flakyMaster(ln net.Listener, dropFirst int) {
	for i := 0; ; i++ {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if i >= dropFirst {
			go fakeMaster(nc)
			continue
		}
		go func(nc net.Conn) {
			defer nc.Close()
			fr := fakeHandshake(nc)
			if fr == nil {
				return
			}
			for {
				f, err := fr.ReadFrame()
				if err != nil {
					return
				}
				if f.Type == wire.FrameMethod && len(f.Payload) >= 4 &&
					binary.BigEndian.Uint16(f.Payload[0:2]) == wire.ClassBasic &&
					binary.BigEndian.Uint16(f.Payload[2:4]) == 40 {
					return // swallow the publish, reset the link
				}
			}
		}(nc)
	}
}

// confirmRecorder collects ClusterConfirm verdicts by seq.
type confirmRecorder struct {
	ch chan bool
}

func (r *confirmRecorder) ClusterConfirm(seq uint64, ok bool) { r.ch <- ok }

// linkFlapForward runs one confirm-bridged forward against a flaky
// master that drops the first dropFirst link connections, and returns
// the verdict the origin channel received.
func linkFlapForward(t *testing.T, dropFirst int) bool {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go flakyMaster(ln, dropFirst)

	hub := newFedHub(0, nil, nil)
	defer hub.closeAll()
	l, err := hub.link(ln.Addr().String(), "/")
	if err != nil {
		t.Fatal(err)
	}

	// A multi-frame body, so the replay borrows it into the fresh link's
	// writer: the pending ledger's reference is all that keeps it alive.
	const size = 256 << 10
	msg := broker.NewMessage("", "flap-q", wire.Properties{}, size)
	msg.AppendBody(make([]byte, size))
	defer msg.Release()

	rec := &confirmRecorder{ch: make(chan bool, 1)}
	if err := l.forward("", "flap-q", msg, rec, 7); err != nil {
		t.Fatalf("forward: %v", err)
	}
	select {
	case ok := <-rec.ch:
		return ok
	case <-time.After(10 * time.Second):
		t.Fatal("confirm never resolved after link flap")
		return false
	}
}

// TestFedLinkRetryReplaysOnce: a link failure replays the outstanding
// forward exactly once on a fresh link. One flap resolves to an ack (the
// replay reached an acking master, counted in federation_retries); two
// flaps resolve to a nack — the forward already rode its one retry, so
// the producer's confirm machinery takes over instead of an in-process
// replay storm. Either way the retry path hands every body loan back:
// wire.loaned_bytes returns to its baseline.
func TestFedLinkRetryReplaysOnce(t *testing.T) {
	loaned := wire.LoanedBytes()
	retries := telemetry.Default.Counter("cluster.federation_retries")
	base := retries.Load()
	if ok := linkFlapForward(t, 1); !ok {
		t.Fatal("single flap: replayed forward should resolve to an ack")
	}
	if got := retries.Load() - base; got != 1 {
		t.Fatalf("federation_retries delta = %d, want 1", got)
	}
	if ok := linkFlapForward(t, 2); ok {
		t.Fatal("double flap: a forward that already rode its retry must nack")
	}
	// The ledger drops its reference right after relaying the verdict.
	deadline := time.Now().Add(5 * time.Second)
	for wire.LoanedBytes() > loaned {
		if time.Now().After(deadline) {
			t.Fatalf("loaned bytes = %d after both flaps, want <= baseline %d", wire.LoanedBytes(), loaned)
		}
		time.Sleep(time.Millisecond)
	}
}

package cluster

import (
	"fmt"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
)

func TestStartAndClose(t *testing.T) {
	c, err := Start(3, broker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	addrs := c.Addrs()
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
	}
}

func TestStartRejectsZeroNodes(t *testing.T) {
	if _, err := Start(0, broker.Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestPlacementIsStableAndSpread(t *testing.T) {
	c, err := Start(3, broker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counts := map[int]int{}
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("queue-%d", i)
		o1 := c.OwnerOf(name)
		o2 := c.OwnerOf(name)
		if o1 != o2 {
			t.Fatalf("placement unstable for %s", name)
		}
		if got := c.AddrFor(name); got != c.Node(o1).Addr() {
			t.Fatalf("AddrFor mismatch")
		}
		counts[o1]++
	}
	for n := 0; n < 3; n++ {
		if counts[n] == 0 {
			t.Errorf("node %d received no queues: %v", n, counts)
		}
	}
}

func TestClusterEndToEndAcrossNodes(t *testing.T) {
	c, err := Start(3, broker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Producer and consumer both attach to the queue's master node.
	qname := "cross-node-q"
	addr := c.AddrFor(qname)
	prod, err := amqp.Dial("amqp://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	pch, _ := prod.Channel()
	pch.QueueDeclare(qname, false, false, false, false, nil)

	cons, err := amqp.Dial("amqp://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	cch, _ := cons.Channel()
	dc, err := cch.Consume(qname, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	pch.Publish("", qname, false, false, amqp.Publishing{Body: []byte("hi")})
	select {
	case d := <-dc:
		if string(d.Body) != "hi" {
			t.Fatalf("got %q", d.Body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestShovelMovesMessages(t *testing.T) {
	c, err := Start(2, broker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srcAddr, dstAddr := c.Node(0).Addr(), c.Node(1).Addr()
	src, _ := amqp.Dial("amqp://" + srcAddr)
	defer src.Close()
	sch, _ := src.Channel()
	sch.QueueDeclare("forward-buffer", false, false, false, false, nil)

	dst, _ := amqp.Dial("amqp://" + dstAddr)
	defer dst.Close()
	dch, _ := dst.Channel()
	dch.QueueDeclare("event-builder", false, false, false, false, nil)

	sh, err := NewShovel(ShovelConfig{
		SourceURL: "amqp://" + srcAddr, SourceQ: "forward-buffer",
		DestURL: "amqp://" + dstAddr, DestQ: "event-builder",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	const n = 20
	for i := 0; i < n; i++ {
		sch.Publish("", "forward-buffer", false, false, amqp.Publishing{
			MessageID: fmt.Sprintf("ev-%d", i),
			Body:      []byte("event-batch"),
		})
	}
	dc, err := dch.Consume("event-builder", "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	timeout := time.After(10 * time.Second)
	for got < n {
		select {
		case d := <-dc:
			if string(d.Body) != "event-batch" {
				t.Fatalf("body %q", d.Body)
			}
			got++
		case <-timeout:
			t.Fatalf("shovel moved %d of %d (Moved=%d)", got, n, sh.Moved())
		}
	}
	// The source ack (and the count) follows the republish, so the count
	// may trail the destination's deliveries briefly.
	waitMoved(t, sh, n)
	if got := sh.Moved(); got != int64(n) {
		t.Errorf("Moved = %d, want %d", got, n)
	}
}

func TestShovelSourceMissingQueue(t *testing.T) {
	c, err := Start(1, broker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = NewShovel(ShovelConfig{
		SourceURL: "amqp://" + c.Node(0).Addr(), SourceQ: "missing",
		DestURL: "amqp://" + c.Node(0).Addr(), DestQ: "also-missing",
	})
	if err == nil {
		t.Fatal("expected error for missing source queue")
	}
}

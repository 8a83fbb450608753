package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/core"
	"ds2hpc/internal/fabric"
	"ds2hpc/internal/transport"
)

// Flow-control and protocol settings shared by every workload. Prefetch
// and the ack batch are the paper's §5.2 defaults.
const (
	prefetch = 8
	ackBatch = 4
	// queueLimitBytes is every queue's reject-publish limit. The
	// generator's windows keep a healthy run far below it, so a nack is
	// always a real failure.
	queueLimitBytes = 256 << 20
)

// arch is one deployed architecture and the prefix of its metrics.
type arch struct {
	name   core.ArchitectureName
	prefix string
}

var archs = []arch{{core.DTS, "dts"}, {core.PRSHAProxy, "prs"}, {core.MSS, "mss"}}

// unshaped is a fabric profile with every rate and latency zero, so the
// emulated links pass bytes straight through and the benchmark measures
// the data plane instead of token buckets. The LB keeps its 16 workers.
func unshaped() fabric.Profile { return fabric.Profile{Scale: 1, LBWorkers: 16} }

// session is one slice's pair of client connections: the producer
// (publishes with confirms; on feedback-1m also consumes replies) and
// the consumer (consumes; on feedback-1m also publishes replies).
type session struct {
	prod, cons *amqp.Connection
	pub        *amqp.Channel // producer, confirm mode
	confirms   chan amqp.Confirmation
	returns    chan amqp.Return
	consCh     *amqp.Channel
	deliveries <-chan amqp.Delivery

	// feedback-1m only.
	replyPub *amqp.Channel // consumer side, publishes replies
	replyCh  *amqp.Channel // producer side, consumes replies
	replies  <-chan amqp.Delivery

	// clientWrites counts Write calls on both client connections, taken
	// by a counting hop prepended to each endpoint's path.
	clientWrites atomic.Int64
}

// Queue names. feedback-1m uses reqQueue and replyQueue.
const (
	dataQueue  = "perfbench.data"
	reqQueue   = "perfbench.req"
	replyQueue = "perfbench.reply"
)

func (w *workload) sendQueue() string {
	if w.feedback {
		return reqQueue
	}
	return dataQueue
}

// deployOptions is the core.Deploy configuration of a workload.
func (w *workload) deployOptions(dataDir string) core.Options {
	opts := core.Options{Nodes: w.nodes, Profile: unshaped()}
	if w.replicated {
		opts.Federation = true
		opts.ReplicationFactor = 2
		opts.DataDir = dataDir
		opts.Durability = seglog.Options{Fsync: seglog.FsyncInterval}
		// Clients follow connection-level master redirects, which the
		// client only does with a reconnect policy.
		opts.Reconnect = &amqp.ReconnectPolicy{}
	}
	return opts
}

// queueArgs bound every queue so overflow is refused (and nacked) rather
// than absorbed.
var queueArgs = amqp.Table{"x-overflow": "reject-publish", "x-max-length-bytes": int64(queueLimitBytes)}

// openSession connects both clients through the endpoints dep hands
// out and declares everything the first publish needs: channels, queues,
// confirm select, QoS and consumer registration. Connect spans go to tr
// when non-nil.
func openSession(dep core.Deployment, w *workload, tr *tracer) (*session, error) {
	s := &session{}
	if err := s.open(dep, w, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) open(dep core.Deployment, w *workload, tr *tracer) error {
	q := w.sendQueue()
	var err error
	if s.prod, err = s.connect(dep.ProducerEndpoint(q), tr); err != nil {
		return fmt.Errorf("producer connect: %w", err)
	}
	if s.cons, err = s.connect(dep.ConsumerEndpoint(q), tr); err != nil {
		return fmt.Errorf("consumer connect: %w", err)
	}
	if s.pub, err = s.prod.Channel(); err != nil {
		return fmt.Errorf("producer channel: %w", err)
	}
	if _, err = s.pub.QueueDeclare(q, w.replicated, false, false, false, queueArgs); err != nil {
		return fmt.Errorf("producer declare: %w", err)
	}
	if err = s.pub.Confirm(false); err != nil {
		return fmt.Errorf("confirm select: %w", err)
	}
	// Confirms and returns are drained by dedicated goroutines; the
	// buffer only absorbs bursts of multiple-acks between their reads.
	s.confirms = s.pub.NotifyPublish(make(chan amqp.Confirmation, 256))
	s.returns = s.pub.NotifyReturn(make(chan amqp.Return, 1))
	if s.consCh, s.deliveries, err = consumeOn(s.cons, q, w.replicated); err != nil {
		return fmt.Errorf("consumer: %w", err)
	}
	if !w.feedback {
		return nil
	}
	if s.replyPub, err = s.cons.Channel(); err != nil {
		return fmt.Errorf("reply channel: %w", err)
	}
	if s.replyCh, s.replies, err = consumeOn(s.prod, replyQueue, false); err != nil {
		return fmt.Errorf("reply consumer: %w", err)
	}
	return nil
}

// consumeOn opens a channel on c, declares queue and starts a
// manual-ack consumer with the benchmark's prefetch.
func consumeOn(c *amqp.Connection, queue string, durable bool) (*amqp.Channel, <-chan amqp.Delivery, error) {
	ch, err := c.Channel()
	if err != nil {
		return nil, nil, err
	}
	if _, err := ch.QueueDeclare(queue, durable, false, false, false, queueArgs); err != nil {
		return nil, nil, err
	}
	if err := ch.Qos(prefetch, 0, false); err != nil {
		return nil, nil, err
	}
	d, err := ch.Consume(queue, "", false, false, false, false, nil)
	return ch, d, err
}

// connect dials an endpoint the deployment handed out, with a counting
// hop in front of its path so client-side writes can be attributed.
func (s *session) connect(ep core.Endpoint, tr *tracer) (*amqp.Connection, error) {
	ep.Path = append(transport.Path{countingHop(&s.clientWrites)}, ep.Path...)
	start := time.Now()
	c, err := ep.Connect()
	tr.addSetup(spanConnect, start, time.Now())
	return c, err
}

// close closes both client connections.
func (s *session) close() {
	if s.prod != nil {
		s.prod.Close()
	}
	if s.cons != nil {
		s.cons.Close()
	}
}

// countingHop counts Write calls on every connection dialed through it.
func countingHop(n *atomic.Int64) transport.Hop {
	return transport.HopFunc("count", func(next transport.DialFunc) transport.DialFunc {
		return func(network, addr string) (net.Conn, error) {
			c, err := next(network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, writes: n}, nil
		}
	})
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// setupArch times set-up setupRepeats times: deploy a, then open a
// session up to the point where the first publish can go out. Every
// deployment but the last is torn down; the last serves the measured
// slices. Deploy and connect spans go to tr when non-nil.
func setupArch(a arch, w *workload, dataRoot string, tr *tracer) (core.Deployment, []time.Duration, error) {
	var took []time.Duration
	for i := 0; ; i++ {
		dir := ""
		if w.replicated {
			dir = filepath.Join(dataRoot, fmt.Sprintf("%s-%d", a.prefix, i))
		}
		start := time.Now()
		dep, err := core.Deploy(a.name, w.deployOptions(dir))
		tr.addSetup(spanDeploy, start, time.Now())
		if err != nil {
			return nil, took, fmt.Errorf("deploy %s: %w", a.name, err)
		}
		s, err := openSession(dep, w, tr)
		if err != nil {
			dep.Close()
			return nil, took, fmt.Errorf("%s: %w", a.name, err)
		}
		took = append(took, time.Since(start))
		s.close()
		if i == setupRepeats-1 {
			return dep, took, nil
		}
		dep.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
}

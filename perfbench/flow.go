package main

import (
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/amqp"
)

const (
	// ringSize bounds the per-sequence publish-time ring. The producer
	// never runs more than maxUnconfirmed ahead of the confirms, so a
	// slot is reused only after its confirm was read.
	ringSize       = 4096
	maxUnconfirmed = ringSize / 2
	// replySize is a feedback reply: the request's sequence number and
	// the CRC32-C of the request body as the consumer received it.
	replySize = 12
)

// flow is one architecture's traffic: a producer goroutine, a confirm
// reader, the consumer and, on feedback-1m, the reply reader. Counters
// are atomics read by the main goroutine at window boundaries; every
// other field is owned by the one goroutine that writes it.
type flow struct {
	w  *workload
	in *inputs
	s  *session
	m  *meter
	tr *tracer

	stop     chan struct{}
	prodDone chan struct{}
	tokens   chan struct{} // closed loop: one per message (or request) allowed outstanding
	wg       sync.WaitGroup

	// t0 is the open-loop schedule origin: message seq is due at
	// t0 + (seq-1)·period.
	t0     time.Time
	period time.Duration

	published atomic.Uint64 // highest sequence number handed to Publish
	confirmed atomic.Uint64
	received  atomic.Uint64 // unique verified messages (round trips on feedback-1m)
	payload   atomic.Int64  // payload bytes published (requests and replies)
	nacked    atomic.Int64
	returned  atomic.Int64
	pubErrs   atomic.Int64
	dups      atomic.Int64
	corrupt   atomic.Int64

	pubStart [ringSize]atomic.Int64 // publish-call start by seq, UnixNano

	ackFlush   chan chan struct{} // main → consumer: ack every delivery received so far
	replyFlush chan chan struct{} // main → reply reader: same
}

func newFlow(w *workload, in *inputs, s *session, m *meter, tr *tracer) *flow {
	f := &flow{
		w: w, in: in, s: s, m: m, tr: tr,
		stop:       make(chan struct{}),
		prodDone:   make(chan struct{}),
		ackFlush:   make(chan chan struct{}),
		replyFlush: make(chan chan struct{}),
	}
	if w.window > 0 {
		f.tokens = make(chan struct{}, w.window)
		for i := 0; i < w.window; i++ {
			f.tokens <- struct{}{}
		}
	} else {
		f.period = time.Duration(float64(time.Second) / w.rate)
	}
	return f
}

// failures is the number of failed operations seen so far, excluding
// what only the end of a run can tell (lost and unconfirmed messages).
func (f *flow) failures() int64 {
	return f.nacked.Load() + f.returned.Load() + f.pubErrs.Load() + f.dups.Load() + f.corrupt.Load()
}

// start launches the goroutines.
func (f *flow) start() {
	f.t0 = time.Now()
	f.wg.Add(3)
	go f.produce()
	go f.readConfirms()
	go f.readReturns()
	f.wg.Add(1)
	go f.consume()
	if f.w.feedback {
		f.wg.Add(1)
		go f.readReplies()
	}
}

// drain stops the producer, waits (bounded) for every published message
// to be confirmed and received, and acks what the consumers still hold.
// Goroutines exit once the session's connections close; wait for them
// with f.wg.
func (f *flow) drain(timeout time.Duration) {
	close(f.stop)
	<-f.prodDone
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p := f.published.Load()
		if f.confirmed.Load() >= p && f.received.Load() >= p {
			break
		}
		time.Sleep(time.Millisecond)
	}
	flush := func(c chan chan struct{}) {
		done := make(chan struct{})
		select {
		case c <- done:
			<-done
		case <-time.After(time.Second):
		}
	}
	flush(f.ackFlush)
	if f.w.feedback {
		flush(f.replyFlush)
	}
}

func (f *flow) produce() {
	defer f.wg.Done()
	defer close(f.prodDone)
	q := f.w.sendQueue()
	for seq := uint64(1); ; seq++ {
		var due time.Time
		if f.tokens != nil {
			select {
			case <-f.tokens:
			case <-f.stop:
				return
			}
		} else {
			due = f.t0.Add(time.Duration(seq-1) * f.period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			// An edge instrument cannot slow down, but the generator
			// must not overrun the queue limit either: past openLoopCap
			// unreceived messages it waits, and the wait shows up as
			// lateness and latency.
			for f.published.Load()-f.received.Load() >= openLoopCap {
				if f.stopped() {
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		for f.published.Load()-f.confirmed.Load() >= maxUnconfirmed {
			if f.stopped() {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
		if f.stopped() {
			return
		}
		now := time.Now()
		if f.tokens != nil {
			due = now
		}
		if f.tokens == nil && f.tr.active() {
			f.tr.add(spanLate, seq, due, now)
		}
		body := f.in.body(seq)
		id := strconv.FormatUint(seq, 10)
		msg := amqp.Publishing{MessageID: id, Timestamp: uint64(due.UnixNano()), Body: body}
		if f.w.feedback {
			msg.ReplyTo, msg.CorrelationID = replyQueue, id
		}
		f.pubStart[seq%ringSize].Store(now.UnixNano())
		f.published.Store(seq)
		f.payload.Add(int64(len(body)))
		err := f.s.pub.Publish("", q, false, false, msg)
		if f.tr.active() {
			f.tr.add(spanPublish, seq, now, time.Now())
		}
		if err != nil {
			f.pubErrs.Add(1)
			return
		}
	}
}

func (f *flow) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// readConfirms tallies confirms; on the open loop it also observes the
// workload latency, due time to confirm.
func (f *flow) readConfirms() {
	defer f.wg.Done()
	for c := range f.s.confirms {
		now := time.Now()
		if !c.Ack {
			f.nacked.Add(1)
		}
		f.confirmed.Add(1)
		if f.tokens == nil {
			due := f.t0.Add(time.Duration(c.DeliveryTag-1) * f.period)
			f.m.observe(now, now.Sub(due))
		}
		if f.tr.active() {
			f.tr.add(spanConfirm, c.DeliveryTag, time.Unix(0, f.pubStart[c.DeliveryTag%ringSize].Load()), now)
		}
	}
}

func (f *flow) readReturns() {
	defer f.wg.Done()
	for range f.s.returns {
		f.returned.Add(1)
	}
}

// acker batches manual acks: every ackBatch deliveries one multiple-ack.
type acker struct {
	ch      *amqp.Channel
	tr      *tracer
	kind    int
	held    int
	lastTag uint64
}

func (a *acker) delivered(tag uint64) {
	a.held++
	a.lastTag = tag
	if a.held >= ackBatch {
		a.flush()
	}
}

func (a *acker) flush() {
	if a.held == 0 {
		return
	}
	start := time.Now()
	a.ch.Ack(a.lastTag, true)
	if a.tr.active() {
		a.tr.add(a.kind, a.lastTag, start, time.Now())
	}
	a.held = 0
}

// consume verifies each delivery against the seeded inputs (sequence
// number, length and CRC32-C) and marks it in the exactly-once ledger.
// On feedback-1m it answers every request with a reply.
func (f *flow) consume() {
	defer f.wg.Done()
	var seen ledger
	ack := acker{ch: f.s.consCh, tr: f.tr, kind: spanAck}
	for {
		select {
		case d, ok := <-f.s.deliveries:
			if !ok {
				return
			}
			now := time.Now()
			seq, err := strconv.ParseUint(d.MessageID, 10, 64)
			var crc uint32
			valid := err == nil && seq > 0
			if valid {
				crc, valid = f.in.verify(seq, d.Body)
			}
			switch {
			case !valid:
				f.corrupt.Add(1)
			case !seen.mark(seq):
				f.dups.Add(1)
			case f.w.feedback:
				f.reply(seq, crc, d.Timestamp)
			default:
				f.received.Add(1)
				if f.tokens != nil {
					f.m.observe(now, now.Sub(time.Unix(0, int64(d.Timestamp))))
					f.release()
				}
			}
			if f.tr.active() {
				f.tr.add(spanReceipt, seq, time.Unix(0, int64(d.Timestamp)), now)
			}
			ack.delivered(d.DeliveryTag)
		case done := <-f.ackFlush:
			ack.flush()
			close(done)
		}
	}
}

// reply answers feedback request seq from the consumer's connection.
func (f *flow) reply(seq uint64, crc uint32, created uint64) {
	b := make([]byte, replySize)
	binary.LittleEndian.PutUint64(b, seq)
	binary.LittleEndian.PutUint32(b[8:], crc)
	id := strconv.FormatUint(seq, 10)
	f.payload.Add(replySize)
	if err := f.s.replyPub.Publish("", replyQueue, false, false, amqp.Publishing{
		MessageID: id, CorrelationID: id, Timestamp: created, Body: b,
	}); err != nil {
		f.pubErrs.Add(1)
	}
}

// readReplies closes feedback round trips: the reply must name a request
// the producer sent and echo that request payload's checksum.
func (f *flow) readReplies() {
	defer f.wg.Done()
	var seen ledger
	ack := acker{ch: f.s.replyCh, tr: f.tr, kind: spanReplyAck}
	for {
		select {
		case d, ok := <-f.s.replies:
			if !ok {
				return
			}
			now := time.Now()
			seq, err := strconv.ParseUint(d.CorrelationID, 10, 64)
			valid := err == nil && seq > 0 && len(d.Body) == replySize &&
				binary.LittleEndian.Uint64(d.Body) == seq &&
				binary.LittleEndian.Uint32(d.Body[8:]) == f.in.crcs[f.in.index(seq)]
			switch {
			case !valid:
				f.corrupt.Add(1)
			case !seen.mark(seq):
				f.dups.Add(1)
			default:
				created := time.Unix(0, int64(d.Timestamp))
				f.received.Add(1)
				f.m.observe(now, now.Sub(created))
				f.release()
				if f.tr.active() {
					f.tr.add(spanRoundTrip, seq, created, now)
				}
			}
			ack.delivered(d.DeliveryTag)
		case done := <-f.replyFlush:
			ack.flush()
			close(done)
		}
	}
}

// release returns a closed-loop token.
func (f *flow) release() {
	select {
	case f.tokens <- struct{}{}:
	default:
	}
}

// ledger is an exactly-once bitset over sequence numbers.
type ledger struct{ bits []uint64 }

// mark records seq, reporting false if it was already recorded.
func (l *ledger) mark(seq uint64) bool {
	w := int(seq / 64)
	for w >= len(l.bits) {
		l.bits = append(l.bits, make([]uint64, len(l.bits)+64)...)
	}
	bit := uint64(1) << (seq % 64)
	if l.bits[w]&bit != 0 {
		return false
	}
	l.bits[w] |= bit
	return true
}

// meter splits a slice's measured time into fixed windows. Latency
// samples are appended by the one goroutine that observes completions;
// counts and CPU are read by the main goroutine at window boundaries.
type meter struct {
	start time.Time // end of the settle time: window 0 begins here
	win   time.Duration
	lat   [][]time.Duration
}

func (m *meter) observe(now time.Time, d time.Duration) {
	i := int(now.Sub(m.start) / m.win)
	if now.After(m.start) && i < len(m.lat) {
		m.lat[i] = append(m.lat[i], d)
	}
}

package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/transport"
	"ds2hpc/internal/wire"
)

// Federation: the inter-node link layer. When a publish (or declare)
// lands on a node that does not master its queue, the node forwards it
// to the master over a fedLink — an ordinary AMQP client connection the
// hub dials lazily per (master address, vhost), carried over whatever
// transport.DialFunc the deployment uses between its broker nodes (plain
// TCP in PRS/MSS, the TLS hop in DTS).
//
// The forward path keeps the local delivery path's copy discipline: the
// sender holds the message's refcount and the link's writer borrows the
// pooled body's large chunks as iovec segments (AppendContentFrames), so
// a federated body crosses the link with no more copies than a local
// delivery makes.
//
// Links run in confirm mode and bridge confirms: every forward records
// the origin channel and its publish seq; when the master acks, the
// origin channel relays the verdict to the producer. A link failure
// gives everything outstanding one bounded immediate replay on a freshly
// dialed link (each forward retains its message for exactly this); what
// cannot be replayed — the redial failed, or the forward already rode a
// retry — is nacked, so producers retry through their normal confirm
// machinery. One TCP reset therefore costs one in-process resend instead
// of a producer-visible replay storm.
//
// The replication layer rides the same links: mirror ships are forwards
// whose exchange names a reserved "!mirror.*" operation (see
// replication.go), so forward carries an explicit wire exchange/key pair
// distinct from the message's own envelope.

// fedRPCTimeout bounds synchronous link operations (handshake, remote
// queue declares).
const fedRPCTimeout = 10 * time.Second

// fedHub owns one node's federation links.
type fedHub struct {
	node int
	dir  *Directory
	dial transport.DialFunc

	mu    sync.Mutex
	links map[string]*fedLink // key: addr + "\x00" + vhost
}

func newFedHub(node int, dir *Directory, dial transport.DialFunc) *fedHub {
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, fedRPCTimeout)
		}
	}
	return &fedHub{node: node, dir: dir, dial: dial, links: make(map[string]*fedLink)}
}

// link returns a live link to addr for vhost, dialing one if needed.
// The dial happens under the hub lock: link setup is rare (once per
// (sibling, vhost) per topology change), and serializing it keeps two
// racing forwards from opening duplicate links.
func (h *fedHub) link(addr, vhost string) (*fedLink, error) {
	key := addr + "\x00" + vhost
	h.mu.Lock()
	defer h.mu.Unlock()
	if l, ok := h.links[key]; ok && !l.isDead() {
		return l, nil
	}
	nc, err := h.dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: federation dial %s: %w", addr, err)
	}
	l, err := newFedLink(nc, addr, vhost, h)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("cluster: federation handshake %s: %w", addr, err)
	}
	h.links[key] = l
	fedLinks.Add(1)
	return l, nil
}

// closeAll tears down every link (node shutdown).
func (h *fedHub) closeAll() {
	h.mu.Lock()
	links := make([]*fedLink, 0, len(h.links))
	for _, l := range h.links {
		links = append(links, l)
	}
	h.links = make(map[string]*fedLink)
	h.mu.Unlock()
	for _, l := range links {
		// Node shutdown: no replay — nack everything outstanding.
		l.failWith(fmt.Errorf("cluster: federation link closed"), false)
	}
}

// retryOutstanding gives a failed link's outstanding forwards one bounded
// immediate replay on a freshly dialed link, in original seq order so the
// master's confirm frontier stays contiguous. Entries that already rode a
// retry, or that cannot be re-sent because the redial (or re-forward)
// failed, are nacked. Each entry of pend carries the message reference
// the dead link's ledger held; it keeps the body alive until the entry
// is either re-forwarded (the reference moves into the fresh link's
// ledger) or resolved (the reference is dropped), never longer.
func (h *fedHub) retryOutstanding(addr, vhost string, seqs []uint64, pend map[uint64]fedPending) {
	nl, err := h.link(addr, vhost)
	for _, s := range seqs {
		p := pend[s]
		if err != nil || p.retried {
			resolvePending(p, false)
			continue
		}
		p.retried = true
		if ferr := nl.forwardPending(p); ferr != nil {
			// The fresh link died too; nack this and everything after.
			resolvePending(p, false)
			err = ferr
			continue
		}
		fedRetries.Inc()
	}
}

// fedPending is one outstanding confirm-bridged forward: the origin
// channel and the producer-facing seq to relay the master's verdict to,
// plus a retained message reference and its wire envelope so a link
// failure can replay the forward once before giving up. A zero target
// marks a fire-and-forget forward that still occupies a link seq (the
// remote acks every publish on the confirm channel).
type fedPending struct {
	target   broker.ConfirmTarget
	seq      uint64
	msg      *broker.Message
	exchange string
	key      string
	retried  bool
}

// resolvePending relays a verdict to the pending forward's origin (if
// confirm-bridged) and drops its retained message reference.
func resolvePending(p fedPending, ok bool) {
	if p.target != nil {
		p.target.ClusterConfirm(p.seq, ok)
	}
	if p.msg != nil {
		p.msg.Release()
	}
}

// fedLink is one AMQP connection to a sibling node, channel 1 open in
// confirm mode. Writes serialize on mu; confirms resolve on the read
// loop goroutine.
type fedLink struct {
	nc       net.Conn
	addr     string
	vhost    string
	frameMax uint32
	hub      *fedHub // nil for hub-less links (tests); disables the failure replay

	mu      sync.Mutex
	w       *wire.Writer
	pub     wire.BasicPublish     // reused per forward so the method never escapes
	seq     uint64                // last link-local publish seq issued
	next    uint64                // lowest possibly-outstanding seq
	pending map[uint64]fedPending // link seq -> origin
	dead    bool
	err     error

	rpcMu sync.Mutex       // one synchronous RPC in flight at a time
	rpc   chan wire.Method // declare-ok / channel errors for the RPC waiter

	// Per-sibling tagged series (cluster.federation_link_*{link=addr}),
	// captured once at link setup alongside the untagged cluster totals.
	msgsCtx  *telemetry.Counter
	bytesCtx *telemetry.Counter
}

// newFedLink performs the client-side AMQP handshake on nc, opens
// channel 1 in confirm mode, and starts the read loop. addr tags the
// link's per-sibling telemetry series; the interned context makes the
// tagged counters one map hit at link setup and plain atomic adds on
// the forward path.
func newFedLink(nc net.Conn, addr, vhost string, hub *fedHub) (*fedLink, error) {
	ctx := telemetry.Intern("link=" + addr)
	l := &fedLink{
		nc:       nc,
		addr:     addr,
		vhost:    vhost,
		hub:      hub,
		w:        wire.NewWriter(),
		next:     1,
		pending:  make(map[uint64]fedPending),
		rpc:      make(chan wire.Method, 1),
		msgsCtx:  telemetry.Default.CounterCtx("cluster.federation_link_msgs", ctx),
		bytesCtx: telemetry.Default.CounterCtx("cluster.federation_link_bytes", ctx),
	}
	nc.SetDeadline(time.Now().Add(fedRPCTimeout))
	fr := wire.NewFrameReader(nc, 0)
	if err := l.handshake(fr); err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	go l.readLoop(fr)
	return l, nil
}

func (l *fedLink) handshake(fr *wire.FrameReader) error {
	if err := wire.WriteProtocolHeader(l.nc); err != nil {
		return err
	}
	if _, err := l.expect(fr, &wire.ConnectionStart{}); err != nil {
		return err
	}
	if err := l.send(&wire.ConnectionStartOk{
		ClientProperties: wire.Table{"product": "ds2hpc-federation"},
		Mechanism:        "PLAIN",
		Response:         []byte("\x00guest\x00guest"),
		Locale:           "en_US",
	}); err != nil {
		return err
	}
	m, err := l.expect(fr, &wire.ConnectionTune{})
	if err != nil {
		return err
	}
	tune := m.(*wire.ConnectionTune)
	l.frameMax = tune.FrameMax
	if l.frameMax == 0 {
		l.frameMax = wire.DefaultFrameMax
	}
	fr.SetFrameMax(l.frameMax + 1024)
	// Heartbeat 0: the link detects death by write/read errors; a killed
	// sibling fails the next forward, which is what triggers re-routing.
	if err := l.send(&wire.ConnectionTuneOk{ChannelMax: tune.ChannelMax, FrameMax: l.frameMax}); err != nil {
		return err
	}
	if err := l.send(&wire.ConnectionOpen{VirtualHost: l.vhost}); err != nil {
		return err
	}
	if _, err := l.expect(fr, &wire.ConnectionOpenOk{}); err != nil {
		return err
	}
	if err := l.sendCh(&wire.ChannelOpen{}); err != nil {
		return err
	}
	if _, err := l.expect(fr, &wire.ChannelOpenOk{}); err != nil {
		return err
	}
	if err := l.sendCh(&wire.ConfirmSelect{}); err != nil {
		return err
	}
	if _, err := l.expect(fr, &wire.ConfirmSelectOk{}); err != nil {
		return err
	}
	return nil
}

func (l *fedLink) send(m wire.Method) error   { return l.sendOn(0, m) }
func (l *fedLink) sendCh(m wire.Method) error { return l.sendOn(1, m) }

func (l *fedLink) sendOn(ch uint16, m wire.Method) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return l.err
	}
	l.w.AppendMethodFrame(ch, m)
	return l.w.FlushFrames(l.nc, 1)
}

// expect reads method frames until one matching want's type arrives
// (heartbeats skipped); used only during the synchronous handshake.
func (l *fedLink) expect(fr *wire.FrameReader, want wire.Method) (wire.Method, error) {
	wantC, wantM := want.ID()
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return nil, err
		}
		if f.Type != wire.FrameMethod {
			continue
		}
		m, err := wire.ParseMethod(f.Payload)
		if err != nil {
			return nil, err
		}
		if c, id := m.ID(); c == wantC && id == wantM {
			return m, nil
		}
		if cl, ok := m.(*wire.ConnectionClose); ok {
			return nil, fmt.Errorf("connection.close %d: %s", cl.ReplyCode, cl.ReplyText)
		}
	}
}

func (l *fedLink) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// fail marks the link dead. With a hub attached, the outstanding forwards
// get one bounded immediate replay on a freshly dialed link before being
// nacked (retryOutstanding); hub-less links nack everything right away.
func (l *fedLink) fail(err error) { l.failWith(err, true) }

func (l *fedLink) failWith(err error, retry bool) {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	l.dead = true
	l.err = err
	pend := l.pending
	l.pending = make(map[uint64]fedPending)
	l.mu.Unlock()
	l.nc.Close()
	fedLinks.Add(-1)
	if len(pend) == 0 {
		return
	}
	if retry && l.hub != nil {
		seqs := make([]uint64, 0, len(pend))
		for s := range pend {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		// Replay off the read-loop goroutine: the redial and re-forwards
		// must not block whatever failed the link.
		go l.hub.retryOutstanding(l.addr, l.vhost, seqs, pend)
		return
	}
	for _, p := range pend {
		resolvePending(p, false)
	}
}

// forward ships one publish across the link under the wire envelope
// (exchange, key) — "" + queue for an ordinary federated publish, a
// "!mirror.*" pair for replication ships. The borrowed body segments are
// flushed before forward returns; the message itself is retained in the
// pending entry until its confirm resolves, so a link failure can replay
// it. The steady-state path allocates nothing: pooled writer buffer,
// borrowed body iovecs, map slot reuse, refcount adds.
func (l *fedLink) forward(exchange, key string, m *broker.Message, target broker.ConfirmTarget, origSeq uint64) error {
	m.Retain()
	err := l.forwardPending(fedPending{target: target, seq: origSeq, msg: m, exchange: exchange, key: key})
	if err != nil {
		m.Release()
	}
	return err
}

// forwardPending ships one pending entry (fresh or replayed); on success
// the entry's message reference is owned by the pending table. That
// reference may be the only one left (a replay holds nothing else), and
// the confirm can resolve it as soon as mu is released, so nothing here
// touches the message after the unlock.
func (l *fedLink) forwardPending(p fedPending) error {
	size := int64(len(p.msg.Body))
	l.mu.Lock()
	if l.dead {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.seq++
	l.pending[l.seq] = p
	l.pub = wire.BasicPublish{Exchange: p.exchange, RoutingKey: p.key}
	frames := l.w.AppendContentFrames(1, &l.pub, &p.msg.Props, p.msg.Body, l.frameMax)
	err := l.w.FlushFrames(l.nc, frames)
	if err != nil {
		delete(l.pending, l.seq)
		l.mu.Unlock()
		l.fail(err)
		return err
	}
	l.mu.Unlock()
	fedMsgs.Inc()
	fedBytes.Add(size)
	l.msgsCtx.Inc()
	l.bytesCtx.Add(size)
	return nil
}

// declare runs a synchronous queue.declare on the link and waits for the
// declare-ok — the ensure-on-master half of a location-transparent
// declare.
func (l *fedLink) declare(queue string, durable bool) error {
	l.rpcMu.Lock()
	defer l.rpcMu.Unlock()
	if err := l.sendCh(&wire.QueueDeclare{Queue: queue, Durable: durable}); err != nil {
		return err
	}
	select {
	case m := <-l.rpc:
		switch x := m.(type) {
		case *wire.QueueDeclareOk:
			return nil
		case *wire.ChannelClose:
			return fmt.Errorf("cluster: remote declare %q: %d %s", queue, x.ReplyCode, x.ReplyText)
		default:
			return fmt.Errorf("cluster: remote declare %q: unexpected %T", queue, m)
		}
	case <-time.After(fedRPCTimeout):
		return fmt.Errorf("cluster: remote declare %q: timeout", queue)
	}
}

// readLoop drains confirms (and RPC replies) from the master. Acks and
// nacks are decoded in place from the frame payload — the hot path runs
// without a method allocation per confirm.
func (l *fedLink) readLoop(fr *wire.FrameReader) {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			l.fail(err)
			return
		}
		if f.Type != wire.FrameMethod || len(f.Payload) < 4 {
			continue // heartbeats; content frames (no mandatory returns expected)
		}
		classID := binary.BigEndian.Uint16(f.Payload[0:2])
		methodID := binary.BigEndian.Uint16(f.Payload[2:4])
		if classID == wire.ClassBasic && (methodID == 80 || methodID == 120) && len(f.Payload) >= 13 {
			// basic.ack / basic.nack: tag u64 at [4:12], multiple at [12].
			tag := binary.BigEndian.Uint64(f.Payload[4:12])
			multiple := f.Payload[12] != 0
			l.settle(tag, multiple, methodID == 80)
			continue
		}
		m, err := wire.ParseMethod(f.Payload)
		if err != nil {
			l.fail(err)
			return
		}
		switch x := m.(type) {
		case *wire.QueueDeclareOk:
			select {
			case l.rpc <- m:
			default:
			}
		case *wire.ChannelClose:
			select {
			case l.rpc <- m:
			default:
			}
			l.fail(fmt.Errorf("cluster: federation channel closed: %d %s", x.ReplyCode, x.ReplyText))
			return
		case *wire.ConnectionClose:
			l.fail(fmt.Errorf("cluster: federation connection closed: %d %s", x.ReplyCode, x.ReplyText))
			return
		default:
			// basic.return etc: ignore; forwards are not mandatory.
		}
	}
}

// settle resolves confirmed link seqs and relays verdicts to the origin
// channels. The master acks sequentially, so next tracks the resolution
// frontier and multiple-acks walk a contiguous range.
func (l *fedLink) settle(tag uint64, multiple, ok bool) {
	l.mu.Lock()
	from := l.next
	if !multiple {
		from = tag
	}
	if tag < from {
		l.mu.Unlock()
		return
	}
	// Resolve [from, tag] while holding entries aside; relay (and drop the
	// replay references) after unlock so a confirm write that blocks
	// cannot stall the link's bookkeeping.
	var single fedPending
	var batch []fedPending
	n := 0
	for t := from; t <= tag; t++ {
		p, hit := l.pending[t]
		if !hit {
			continue
		}
		delete(l.pending, t)
		if n == 0 {
			single = p
		} else {
			if batch == nil {
				batch = append(batch, single)
			}
			batch = append(batch, p)
		}
		n++
	}
	if tag >= l.next {
		l.next = tag + 1
	}
	l.mu.Unlock()
	if n == 1 {
		resolvePending(single, ok)
		return
	}
	for _, p := range batch {
		resolvePending(p, ok)
	}
}

package wire

import (
	"bytes"
	"io"
	"testing"
)

// loopReader replays a byte sequence forever, so a FrameReader can be
// driven through an arbitrary number of steady-state reads.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// contentFrameBytes encodes one method+header+body frame triplet.
func contentFrameBytes(t testing.TB, body []byte) []byte {
	t.Helper()
	w := NewWriter()
	props := Properties{ContentType: "application/octet-stream", Timestamp: 12345}
	frames := w.AppendContentFrames(3, &BasicDeliver{
		ConsumerTag: "ctag-1-1", DeliveryTag: 7, RoutingKey: "ws-q-0",
	}, &props, body, DefaultFrameMax)
	var out bytes.Buffer
	if err := w.FlushFrames(&out, frames); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestAllocsFrameEncode locks in the pooled-writer win: encoding a full
// content frame triplet through a pooled Writer allocates nothing in
// steady state.
func TestAllocsFrameEncode(t *testing.T) {
	body := make([]byte, 2048)
	props := Properties{ContentType: "application/octet-stream", Timestamp: 12345}
	deliver := BasicDeliver{ConsumerTag: "ctag-1-1", DeliveryTag: 7, RoutingKey: "ws-q-0"}
	// Warm the writer pool.
	for i := 0; i < 4; i++ {
		w := GetWriter()
		w.AppendContentFrames(3, &deliver, &props, body, DefaultFrameMax)
		PutWriter(w)
	}
	got := testing.AllocsPerRun(200, func() {
		w := GetWriter()
		w.AppendContentFrames(3, &deliver, &props, body, DefaultFrameMax)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		PutWriter(w)
	})
	if got > 0 {
		t.Fatalf("content-frame encode allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsLargeBodyEncode locks in the borrowed-body encode: a 1 MiB
// publish through a pooled Writer, flushed, allocates nothing in steady
// state — the body's frame-sized chunks ride as borrow segments instead
// of growing the Writer's buffer to the body size.
func TestAllocsLargeBodyEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector; zero-alloc assertion not meaningful")
	}
	body := make([]byte, 1<<20)
	props := Properties{ContentType: "application/octet-stream", Timestamp: 12345}
	publish := BasicPublish{RoutingKey: "fb-q-0"}
	encode := func() {
		w := GetWriter()
		frames := w.AppendContentFrames(1, &publish, &props, body, DefaultFrameMax)
		if err := w.FlushFrames(io.Discard, frames); err != nil {
			t.Fatal(err)
		}
		PutWriter(w)
	}
	for i := 0; i < 4; i++ {
		encode()
	}
	if got := testing.AllocsPerRun(100, encode); got > 0 {
		t.Fatalf("1 MiB content encode allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsLargeBodyLoanCycle locks in the body size classes: loaning
// and releasing a 1 MiB body buffer recycles one pooled buffer instead of
// allocating a fresh one per message.
func TestAllocsLargeBodyLoanCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector; zero-alloc assertion not meaningful")
	}
	cycle := func() {
		p := LoanBuf(1 << 20)
		*p = append(*p, 1)
		ReleaseBuf(p)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got > 0 {
		t.Fatalf("1 MiB LoanBuf/ReleaseBuf allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsFrameDecode locks in the pooled read-buffer win: steady-state
// frame reads recycle payload buffers through the pool and allocate
// nothing per frame.
func TestAllocsFrameDecode(t *testing.T) {
	stream := contentFrameBytes(t, make([]byte, 2048))
	fr := NewFrameReader(&loopReader{data: stream}, 0)
	// Warm the pool and the bufio layer.
	for i := 0; i < 16; i++ {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("frame decode allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsMethodRoundTrip bounds the per-message cost of method and
// header parsing (struct + retained strings); regressions here show up
// directly as per-message broker allocations.
func TestAllocsMethodRoundTrip(t *testing.T) {
	payload, err := EncodeMethod(&BasicPublish{RoutingKey: "ws-q-0"})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := ParseMethod(payload); err != nil {
			t.Fatal(err)
		}
	})
	// One Reader, one method struct, one retained routing-key string.
	if got > 3 {
		t.Fatalf("basic.publish parse allocates %.1f objects/op, want <= 3", got)
	}

	header, err := EncodeContentHeader(&ContentHeader{
		ClassID:  ClassBasic,
		BodySize: 2048,
		Properties: Properties{
			ContentType: "application/octet-stream",
			Timestamp:   12345,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(200, func() {
		if _, err := ParseContentHeader(header); err != nil {
			t.Fatal(err)
		}
	})
	// One Reader and one header struct; the content type is interned.
	if got > 2 {
		t.Fatalf("content-header parse allocates %.1f objects/op, want <= 2", got)
	}
}

// TestInternedStringsStayCanonical guards the intern table: parsing a
// well-known constant string must return the canonical instance without
// allocating a fresh copy.
func TestInternedStringsStayCanonical(t *testing.T) {
	w := NewWriter()
	w.ShortStr("application/octet-stream")
	got := testing.AllocsPerRun(100, func() {
		r := NewReader(w.Bytes())
		if s := r.ShortStr(); s != "application/octet-stream" {
			t.Fatalf("parsed %q", s)
		}
	})
	// Only the Reader itself may allocate; the string must be interned.
	if got > 1 {
		t.Fatalf("interned parse allocates %.1f objects/op, want <= 1", got)
	}
}

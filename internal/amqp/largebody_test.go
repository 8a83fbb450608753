package amqp_test

import (
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/wire"
)

// largeBodySize is the Lstream request size of the paper's feedback
// pattern: every body spans eight default-size frames.
const largeBodySize = 1 << 20

// largeBodyRig is a TLS broker with a producer connection and a
// manual-ack consumer connection, publishing a rotation of distinct
// 1 MiB bodies. Distinct contents make a recycled body buffer that is
// still in use show up as a checksum mismatch.
type largeBodyRig struct {
	pub        *amqp.Channel
	deliveries <-chan amqp.Delivery
	bodies     [][]byte
	crcs       []uint32
	next       int
}

func newLargeBodyRig(tb testing.TB) *largeBodyRig {
	tb.Helper()
	id, err := tlsutil.SelfSigned("broker", "127.0.0.1")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := broker.Listen(broker.Config{Addr: "127.0.0.1:0", TLS: id.ServerConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	connect := func() *amqp.Channel {
		c, err := amqp.DialConfig("amqps://"+s.Addr(), amqp.Config{TLS: id.ClientConfig("127.0.0.1")})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { c.Close() })
		ch, err := c.Channel()
		if err != nil {
			tb.Fatal(err)
		}
		return ch
	}
	r := &largeBodyRig{pub: connect()}
	if _, err := r.pub.QueueDeclare("large-q", false, false, false, false, nil); err != nil {
		tb.Fatal(err)
	}
	cons := connect()
	if err := cons.Qos(4, 0, false); err != nil {
		tb.Fatal(err)
	}
	if r.deliveries, err = cons.Consume("large-q", "large-c", false, false, false, false, nil); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b := make([]byte, largeBodySize)
		for j := range b {
			b[j] = byte(j*(2*i+1) + i)
		}
		r.bodies = append(r.bodies, b)
		r.crcs = append(r.crcs, crc32.ChecksumIEEE(b))
	}
	return r
}

// roundTrips publishes n bodies, then receives each, checks its
// checksum, and acks it — up to n delivery bodies are held at once.
func (r *largeBodyRig) roundTrips(tb testing.TB, n int) {
	tb.Helper()
	first := r.next
	for i := 0; i < n; i++ {
		body := r.bodies[(first+i)%len(r.bodies)]
		if err := r.pub.Publish("", "large-q", false, false, amqp.Publishing{Body: body}); err != nil {
			tb.Fatal(err)
		}
	}
	r.next += n
	for i := 0; i < n; i++ {
		select {
		case d := <-r.deliveries:
			want := r.crcs[(first+i)%len(r.crcs)]
			if len(d.Body) != largeBodySize || crc32.ChecksumIEEE(d.Body) != want {
				tb.Fatalf("round trip %d: body of %d bytes fails its checksum", first+i, len(d.Body))
			}
			if err := d.Ack(false); err != nil {
				tb.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			tb.Fatalf("round trip %d: no delivery", first+i)
		}
	}
}

// TestLargeBodyRoundTripTLS sends 1 MiB bodies over TLS with manual
// acks. Every body must arrive intact even though publish bodies are
// borrowed into the encoder and delivery bodies are recycled at each
// ack; after the drain every body loan is back in the pool, and the
// steady state allocates well under one body per round trip (the body
// buffers on both sides come from the pool).
func TestLargeBodyRoundTripTLS(t *testing.T) {
	r := newLargeBodyRig(t)
	base := wire.LoanedBytes()
	for i := 0; i < 4; i++ {
		r.roundTrips(t, 4) // warm the pools and the TLS record buffers
	}

	const trips = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips/4; i++ {
		r.roundTrips(t, 4)
	}
	runtime.ReadMemStats(&after)

	// At or below: an earlier test's broker may still be settling its
	// own loans when the baseline is taken.
	waitFor(t, "loaned bytes back at baseline", func() bool { return wire.LoanedBytes() <= base })
	perTrip := (after.TotalAlloc - before.TotalAlloc) / trips
	t.Logf("%d B allocated per 1 MiB round trip", perTrip)
	if raceEnabled {
		return // sync.Pool drops a fraction of Puts under the race detector
	}
	if perTrip > 64<<10 {
		t.Fatalf("%d B allocated per 1 MiB round trip, want under 64 KiB", perTrip)
	}
}

// BenchmarkLargeBodyRoundTrip measures one 1 MiB publish → deliver →
// ack round trip over TLS on a local broker: the per-message cost of
// large bodies (encode, TLS records, assembly, pooled loans).
func BenchmarkLargeBodyRoundTrip(b *testing.B) {
	r := newLargeBodyRig(b)
	r.roundTrips(b, 4)
	b.SetBytes(largeBodySize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.roundTrips(b, 1)
	}
}

package wire

import (
	"bytes"
	"testing"
)

// referenceContentFrames encodes the method + header + body frame
// sequence frame by frame through WriteFrame — the encoder-independent
// reference AppendContentFrames must reproduce byte for byte.
func referenceContentFrames(t *testing.T, channel uint16, m Method, props *Properties, body []byte, frameMax int) ([]byte, int) {
	t.Helper()
	method, err := EncodeMethod(m)
	if err != nil {
		t.Fatal(err)
	}
	header, err := EncodeContentHeader(&ContentHeader{ClassID: ClassBasic, BodySize: uint64(len(body)), Properties: *props})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	frames := []Frame{{Type: FrameMethod, Channel: channel, Payload: method}, {Type: FrameHeader, Channel: channel, Payload: header}}
	for start := 0; start < len(body); start += frameMax {
		end := min(start+frameMax, len(body))
		frames = append(frames, Frame{Type: FrameBody, Channel: channel, Payload: body[start:end]})
	}
	for _, f := range frames {
		if err := WriteFrame(&out, f); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes(), len(frames)
}

// TestAppendContentFramesZCByteIdentical checks the zero-copy encoder's
// flushed output is byte-for-byte the frame-by-frame WriteFrame
// reference, across body sizes below the borrow threshold, at it, above
// it, and spanning multiple frames with a copied tail.
func TestAppendContentFramesZCByteIdentical(t *testing.T) {
	props := Properties{ContentType: "application/octet-stream", MessageID: "zc-1"}
	sizes := []int{0, 1, zcMinBorrow - 1, zcMinBorrow, zcMinBorrow + 1, 16 << 10,
		DefaultFrameMax, DefaultFrameMax*2 + 777, 1 << 20}
	for _, size := range sizes {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		m := &BasicDeliver{ConsumerTag: "c", DeliveryTag: 9, Exchange: "e", RoutingKey: "k"}
		want, wantFrames := referenceContentFrames(t, 7, m, &props, body, DefaultFrameMax)

		w := GetWriter()
		frames := w.AppendContentFrames(7, m, &props, body, DefaultFrameMax)
		if w.Len() != len(want) {
			t.Fatalf("size %d: Len() = %d before flush, want %d", size, w.Len(), len(want))
		}
		var got bytes.Buffer
		if err := w.FlushFrames(&got, frames); err != nil {
			t.Fatal(err)
		}
		PutWriter(w)

		if frames != wantFrames {
			t.Fatalf("size %d: frame count %d, want %d", size, frames, wantFrames)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("size %d: encoder output differs from the WriteFrame reference", size)
		}
	}
}

// TestZCWriterReuseAfterFlush checks a writer alternates between borrowed
// and copied batches without cross-contamination.
func TestZCWriterReuseAfterFlush(t *testing.T) {
	w := NewWriter()
	props := Properties{}
	big := bytes.Repeat([]byte{0xAB}, zcMinBorrow)

	var first bytes.Buffer
	frames := w.AppendContentFrames(1, &BasicDeliver{DeliveryTag: 1}, &props, big, DefaultFrameMax)
	if err := w.FlushFrames(&first, frames); err != nil {
		t.Fatal(err)
	}

	// Mutate the borrowed body after the flush: the next batch must not
	// see it.
	for i := range big {
		big[i] = 0xCD
	}
	var second bytes.Buffer
	frames = w.AppendContentFrames(1, &BasicDeliver{DeliveryTag: 2}, &props, bytes.Repeat([]byte{0xEF}, 64), DefaultFrameMax)
	if err := w.FlushFrames(&second, frames); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(second.Bytes(), []byte{0xAB, 0xAB}) || bytes.Contains(second.Bytes(), []byte{0xCD, 0xCD}) {
		t.Fatal("second batch leaked bytes from the first batch's borrowed body")
	}
}

// TestLoanBufAccounting locks in the loan API contract: LoanBuf adds the
// loaned capacity to the outstanding gauge, ReleaseBuf returns it (and
// recycles), AbandonBuf returns it without recycling, and nil is safe.
func TestLoanBufAccounting(t *testing.T) {
	base := LoanedBytes()
	p := LoanBuf(1000)
	if cap(*p) < 1000 {
		t.Fatalf("loan cap = %d, want >= 1000", cap(*p))
	}
	if got := LoanedBytes(); got != base+int64(cap(*p)) {
		t.Fatalf("outstanding = %d, want %d", got, base+int64(cap(*p)))
	}
	ReleaseBuf(p)
	if got := LoanedBytes(); got != base {
		t.Fatalf("outstanding after release = %d, want %d", got, base)
	}

	p2 := LoanBuf(4096)
	AbandonBuf(p2)
	if got := LoanedBytes(); got != base {
		t.Fatalf("outstanding after abandon = %d, want %d", got, base)
	}

	ReleaseBuf(nil)
	AbandonBuf(nil)
	if got := LoanedBytes(); got != base {
		t.Fatalf("outstanding after nil ops = %d, want %d", got, base)
	}
}

package wire

import (
	"encoding/binary"
	"io"
	"net"

	"ds2hpc/internal/metrics"
)

// Frame building: hot-path senders encode complete frames — header, payload
// and frame-end — directly into one Writer buffer and emit the whole batch
// with a single Write call, instead of one write syscall per frame section.
// Effectiveness is observable through the metrics registry:
//
//	wire.frames_coalesced  frames that shared a Write with other frames
//	wire.coalesced_writes  batched Write calls issued via FlushFrames

var (
	framesCoalesced = metrics.Default.Counter("wire.frames_coalesced")
	coalescedWrites = metrics.Default.Counter("wire.coalesced_writes")
)

// netBufs keeps the net import out of the pure-codec file while letting
// Writer hold a net.Buffers scratch field.
type netBufs = net.Buffers

// StartFrame begins a frame of the given type, leaving the 32-bit payload
// size zero until EndFrame patches it. It returns the payload start offset
// to pass to EndFrame. Between the two calls the caller appends the frame
// payload with the Writer's encoding methods.
func (w *Writer) StartFrame(ftype byte, channel uint16) int {
	w.Octet(ftype)
	w.Short(channel)
	w.Long(0)
	return len(w.buf)
}

// EndFrame patches the payload size of the frame begun at payloadStart and
// appends the frame-end octet.
func (w *Writer) EndFrame(payloadStart int) {
	size := len(w.buf) - payloadStart
	binary.BigEndian.PutUint32(w.buf[payloadStart-4:payloadStart], uint32(size))
	w.Octet(FrameEnd)
}

// AppendRawFrame appends one complete frame with a verbatim payload.
func (w *Writer) AppendRawFrame(ftype byte, channel uint16, payload []byte) {
	off := w.StartFrame(ftype, channel)
	w.buf = append(w.buf, payload...)
	w.EndFrame(off)
}

// AppendMethodFrame appends one complete method frame, encoding the method
// arguments in place (no intermediate payload slice).
func (w *Writer) AppendMethodFrame(channel uint16, m Method) {
	off := w.StartFrame(FrameMethod, channel)
	c, id := m.ID()
	w.Short(c)
	w.Short(id)
	m.Marshal(w)
	w.EndFrame(off)
}

// zcMinBorrow is the smallest body chunk AppendContentFrames borrows
// instead of copying. net.Buffers.WriteTo turns borrowed segments into a
// writev only on a bare TCP socket; the client's TLS connections, the
// netem-shaped broker links and every other wrapper get one Write per
// segment, so each borrowed chunk costs an extra syscall and an extra
// TLS record for the framing bytes around it. A sweep of TLS round trips
// (bodies 4 KiB–1 MiB, thresholds 2–128 KiB) put the crossover near
// 64 KiB: copying won by about 30% at 4 KiB and 10% at 16 KiB, the two
// tied at 64 KiB, and borrowing won by about 15% at 100 KiB and 2x at
// 1 MiB, where copying grows the Writer past its pool cap every message.
const zcMinBorrow = 64 << 10

// AppendContentFrames appends the full method + content-header + body
// frame sequence for one content-bearing basic-class method
// (basic.publish, basic.deliver, basic.get-ok, basic.return), splitting
// the body at frameMax, and returns the number of frames appended.
//
// Body chunks of at least zcMinBorrow bytes are borrowed, not copied:
// the Writer records a borrow segment and FlushFrames stitches buffer
// ranges and borrowed slices into one vectored write. The caller must
// keep body valid and unmodified until the frames are flushed (delivery
// paths hold the message's refcount across the flush; the client
// flushes a publish before Publish returns).
func (w *Writer) AppendContentFrames(channel uint16, m Method, props *Properties, body []byte, frameMax uint32) int {
	w.AppendMethodFrame(channel, m)
	off := w.StartFrame(FrameHeader, channel)
	marshalContentHeader(w, ClassBasic, uint64(len(body)), props)
	w.EndFrame(off)
	frames := 2
	max := int(frameMax)
	if max <= 0 {
		max = DefaultFrameMax
	}
	for start := 0; start < len(body); start += max {
		end := start + max
		if end > len(body) {
			end = len(body)
		}
		chunk := body[start:end]
		if len(chunk) < zcMinBorrow {
			w.AppendRawFrame(FrameBody, channel, chunk)
		} else {
			// Frame header into the buffer, chunk borrowed, frame-end
			// octet back in the buffer after the splice point.
			w.Octet(FrameBody)
			w.Short(channel)
			w.Long(uint32(len(chunk)))
			w.segs = append(w.segs, borrowSeg{cut: len(w.buf), ext: chunk})
			w.extLen += len(chunk)
			w.Octet(FrameEnd)
		}
		frames++
	}
	return frames
}

// FlushFrames emits every frame accumulated in the Writer with a single
// Write call — a plain write when everything was copied in, a vectored
// write when body segments were borrowed (writev on a bare TCP conn, one
// Write per segment on wrapped and TLS conns) — resets the buffer, and
// records the coalescing counters. frames is the number of frames in the
// buffer (counted by the caller or returned from AppendContentFrames).
func (w *Writer) FlushFrames(dst io.Writer, frames int) error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 && w.extLen == 0 {
		return nil
	}
	var err error
	if len(w.segs) == 0 {
		_, err = dst.Write(w.buf)
	} else {
		iov := w.iov[:0]
		prev := 0
		for _, s := range w.segs {
			if s.cut > prev {
				iov = append(iov, w.buf[prev:s.cut])
				prev = s.cut
			}
			iov = append(iov, s.ext)
		}
		if prev < len(w.buf) {
			iov = append(iov, w.buf[prev:])
		}
		w.iov = iov // keep grown scratch for reuse
		w.nb = net.Buffers(iov)
		_, err = w.nb.WriteTo(dst)
		w.nb = nil // WriteTo re-sliced it; drop so nothing stays pinned
	}
	w.buf = w.buf[:0]
	w.dropBorrows()
	coalescedWrites.Inc()
	if frames > 1 {
		framesCoalesced.Add(uint64(frames))
	}
	return err
}

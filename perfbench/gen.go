package main

import (
	"hash/crc32"
	"math/rand"
)

// castagnoli is the payload checksum table (hardware CRC32-C on amd64 and
// arm64, so verifying a 1 MiB body costs tens of microseconds).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// orderLen is the length of the seeded payload-choice cycle. Message seq
// uses payload order[seq % orderLen]; the cycle is long enough that
// neighbouring messages carry different bodies, so a body delivered under
// the wrong sequence number fails its checksum.
const orderLen = 4096

// inputs is the seeded input stream of one run: a pool of opaque payloads
// with their checksums, and the order in which messages use them. The
// program under test only ever receives these bytes.
type inputs struct {
	payloads [][]byte
	crcs     []uint32
	order    []uint16
}

// newInputs builds the input stream for a workload from the seed: payload
// sizes (uniform in [minSize, maxSize]), payload contents and the payload
// order are all drawn from one generator, so the same seed gives the same
// stream.
func newInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		payloads: make([][]byte, w.pool),
		crcs:     make([]uint32, w.pool),
		order:    make([]uint16, orderLen),
	}
	for i := range in.payloads {
		size := w.minSize
		if w.maxSize > w.minSize {
			size += rng.Intn(w.maxSize - w.minSize + 1)
		}
		p := make([]byte, size)
		rng.Read(p)
		in.payloads[i] = p
		in.crcs[i] = crc32.Checksum(p, castagnoli)
	}
	for i := range in.order {
		in.order[i] = uint16(rng.Intn(w.pool))
	}
	return in
}

// index returns the payload slot message seq carries.
func (in *inputs) index(seq uint64) int { return int(in.order[seq%orderLen]) }

// body returns message seq's payload. Bodies are shared and never
// mutated: a reconnecting client keeps unconfirmed bodies for replay.
func (in *inputs) body(seq uint64) []byte { return in.payloads[in.index(seq)] }

// verify reports whether b is message seq's payload, byte for byte as far
// as CRC32-C can tell, and returns b's checksum.
func (in *inputs) verify(seq uint64, b []byte) (uint32, bool) {
	i := in.index(seq)
	crc := crc32.Checksum(b, castagnoli)
	return crc, len(b) == len(in.payloads[i]) && crc == in.crcs[i]
}

package main

import (
	"bytes"
	"testing"
)

// TestSameSeedSameInputs: the seed alone fixes the input stream (payload
// sizes, contents and the order messages use them), so two runs with
// one seed send identical bytes, and another seed sends different ones.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newInputs(w, 7), newInputs(w, 7), newInputs(w, 8)
		same, differs := true, false
		for seq := uint64(1); seq <= 2*orderLen; seq++ {
			same = same && bytes.Equal(a.body(seq), b.body(seq))
			differs = differs || !bytes.Equal(a.body(seq), c.body(seq))
		}
		if !same {
			t.Errorf("%s: seed 7 gave two different input streams", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same input stream", w.name)
		}
	}
}

func TestInputSizesFollowWorkload(t *testing.T) {
	for _, w := range workloads {
		in := newInputs(w, 1)
		sizes := map[int]bool{}
		for _, p := range in.payloads {
			if len(p) < w.minSize || len(p) > w.maxSize {
				t.Errorf("%s: payload of %d bytes outside [%d, %d]", w.name, len(p), w.minSize, w.maxSize)
			}
			sizes[len(p)] = true
		}
		if w.maxSize > w.minSize && len(sizes) < 2 {
			t.Errorf("%s: payload sizes do not vary", w.name)
		}
	}
}

// TestVerifyCatchesWrongBody: a body delivered under another sequence
// number, or altered in one byte, fails the consumer's check.
func TestVerifyCatchesWrongBody(t *testing.T) {
	in := newInputs(findWorkload("ws-16k"), 3)
	if _, ok := in.verify(5, in.body(5)); !ok {
		t.Fatal("intact body rejected")
	}
	other := uint64(6)
	for in.index(other) == in.index(5) {
		other++
	}
	if _, ok := in.verify(5, in.body(other)); ok {
		t.Error("body of another message accepted")
	}
	b := append([]byte(nil), in.body(5)...)
	b[len(b)/2] ^= 1
	if _, ok := in.verify(5, b); ok {
		t.Error("corrupted body accepted")
	}
}

func TestLedgerExactlyOnce(t *testing.T) {
	var l ledger
	for _, seq := range []uint64{1, 64, 65, 100000} {
		if !l.mark(seq) {
			t.Fatalf("first mark of %d reported a duplicate", seq)
		}
	}
	if l.mark(64) || l.mark(100000) {
		t.Fatal("second mark not reported as a duplicate")
	}
}

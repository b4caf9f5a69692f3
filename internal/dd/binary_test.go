package dd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// encodeDecodeV round-trips e through a fresh package and returns the
// restored edge plus both encodings.
func encodeDecodeV(t *testing.T, p *Pkg, e VEdge) (VEdge, []byte, []byte) {
	t.Helper()
	blob := p.AppendVectorBinary(nil, e)
	q := New(p.nqubits)
	q.SetVectorNormalization(p.vnorm)
	back, err := q.DecodeVectorBinary(blob)
	if err != nil {
		t.Fatalf("DecodeVectorBinary: %v", err)
	}
	return back, blob, q.AppendVectorBinary(nil, back)
}

// TestBinaryVectorRoundTrip drives random sparse states through
// encode → fresh-package decode → re-encode and demands bit identity:
// the re-encoded blob must equal the original byte for byte, and the
// root weight must match exactly (no tolerance).
func TestBinaryVectorRoundTrip(t *testing.T) {
	for _, norm := range []NormScheme{NormL2, NormMax} {
		rng := rand.New(rand.NewSource(61))
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(6)
			p := New(n)
			p.SetVectorNormalization(norm)
			e := randState(t, p, rng, n)
			for g := 0; g < 4; g++ {
				tgt := rng.Intn(n)
				e = p.ApplyGate(e, randGateMatrix(rng), tgt, randControls(rng, n, tgt)...)
			}
			back, blob, blob2 := encodeDecodeV(t, p, e)
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("norm %d trial %d: re-encoded blob differs (%d vs %d bytes)", norm, trial, len(blob), len(blob2))
			}
			if back.W != e.W {
				t.Fatalf("norm %d trial %d: root weight %v != %v", norm, trial, back.W, e.W)
			}
			// Same-package decode must intern onto the identical node.
			same, err := p.DecodeVectorBinary(blob)
			if err != nil {
				t.Fatalf("same-package decode: %v", err)
			}
			if same.N != e.N || same.W != e.W {
				t.Fatalf("norm %d trial %d: same-package decode not pointer-identical", norm, trial)
			}
		}
	}
}

// TestBinaryVectorZero covers the all-zero state (terminal root).
func TestBinaryVectorZero(t *testing.T) {
	p := New(3)
	blob := p.AppendVectorBinary(nil, VZero())
	back, err := New(3).DecodeVectorBinary(blob)
	if err != nil {
		t.Fatalf("decode zero: %v", err)
	}
	if !back.IsZero() {
		t.Fatalf("zero vector did not round-trip: %+v", back)
	}
}

// TestBinaryMatrixRoundTrip does the same for operation diagrams built
// from random controlled-gate products.
func TestBinaryMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(5)
		p := New(n)
		m := p.Ident()
		for g := 0; g < 4; g++ {
			tgt := rng.Intn(n)
			m = p.MultMM(p.MakeGateDD(randGateMatrix(rng), tgt, randControls(rng, n, tgt)...), m)
		}
		blob := p.AppendMatrixBinary(nil, m)
		q := New(n)
		back, err := q.DecodeMatrixBinary(blob)
		if err != nil {
			t.Fatalf("trial %d: DecodeMatrixBinary: %v", trial, err)
		}
		blob2 := q.AppendMatrixBinary(nil, back)
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("trial %d: re-encoded matrix blob differs", trial)
		}
		if back.W != m.W {
			t.Fatalf("trial %d: root weight %v != %v", trial, back.W, m.W)
		}
		same, err := p.DecodeMatrixBinary(blob)
		if err != nil {
			t.Fatalf("same-package decode: %v", err)
		}
		if same.N != m.N || same.W != m.W {
			t.Fatalf("trial %d: same-package decode not pointer-identical", trial)
		}
	}
}

// TestBinaryDecodeRejectsMutations flips one bit at every byte offset
// of a valid blob and truncates it at every length; the decoder must
// either reject the input or produce a structurally valid diagram —
// it must never panic. (Some single-bit flips in weight mantissas
// survive validation by design; the envelope's CRC catches those.)
func TestBinaryDecodeRejectsMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := New(4)
	e := randState(t, p, rng, 4)
	for g := 0; g < 3; g++ {
		e = p.ApplyGate(e, randGateMatrix(rng), rng.Intn(4))
	}
	blob := p.AppendVectorBinary(nil, e)

	for cut := 0; cut < len(blob); cut++ {
		if _, err := New(4).DecodeVectorBinary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(blob))
		}
	}
	for off := 0; off < len(blob); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(blob)
			mut[off] ^= 1 << bit
			q := New(4)
			q.SetMaxNodes(1 << 16) // hostile counts must not OOM the test
			back, err := q.DecodeVectorBinary(mut)
			if err != nil {
				continue
			}
			// Accepted: the result must still be a sane, walkable DD.
			var walk func(n *VNode, lvl int)
			walk = func(n *VNode, lvl int) {
				if n == vTerminal {
					return
				}
				if n.V != lvl {
					t.Fatalf("off %d bit %d: level chain broken", off, bit)
				}
				walk(n.E[0].N, lvl-1)
				walk(n.E[1].N, lvl-1)
			}
			if back.N != vTerminal {
				walk(back.N, 3)
			}
		}
	}
}

// TestBinaryDecodeBudget verifies the node budget bounds decode work:
// a blob needing more nodes than SetMaxNodes allows is rejected with
// ErrResourceExhausted, both via the up-front claimed-count check and
// package state stays consistent afterwards.
func TestBinaryDecodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	p := New(6)
	e := randState(t, p, rng, 6)
	blob := p.AppendVectorBinary(nil, e)
	need := SizeV(e) // interior node count

	q := New(6)
	q.SetMaxNodes(need / 2)
	_, err := q.DecodeVectorBinary(blob)
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("under-budget decode: got %v, want ErrResourceExhausted", err)
	}
	// The package must remain usable after the abort.
	q.SetMaxNodes(0)
	if _, err := q.DecodeVectorBinary(blob); err != nil {
		t.Fatalf("decode after budget abort: %v", err)
	}
}

// TestBinaryDecodeWrongShape rejects mismatched qubit counts, norm
// schemes, swapped kinds, and trailing garbage.
func TestBinaryDecodeWrongShape(t *testing.T) {
	p := New(3)
	vblob := p.AppendVectorBinary(nil, p.ZeroState())
	mblob := p.AppendMatrixBinary(nil, p.Ident())

	if _, err := New(4).DecodeVectorBinary(vblob); err == nil {
		t.Fatal("qubit-count mismatch accepted")
	}
	q := New(3)
	q.SetVectorNormalization(NormMax)
	if _, err := q.DecodeVectorBinary(vblob); err == nil {
		t.Fatal("norm-scheme mismatch accepted")
	}
	if _, err := New(3).DecodeVectorBinary(mblob); err == nil {
		t.Fatal("matrix blob accepted as vector")
	}
	if _, err := New(3).DecodeMatrixBinary(vblob); err == nil {
		t.Fatal("vector blob accepted as matrix")
	}
	if _, err := New(3).DecodeVectorBinary(append(bytes.Clone(vblob), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := New(3).DecodeVectorBinary(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
}

// TestBinaryDecodeRejectsNegligibleChildWeight checks that a non-zero
// child weight within the tolerance of zero is rejected: it used to
// canonicalize to 0 and leave a zero weight on a non-terminal child,
// a node no canonical diagram contains.
func TestBinaryDecodeRejectsNegligibleChildWeight(t *testing.T) {
	p := New(2)
	blob := p.AppendVectorBinary(nil, p.ApplyGate(p.ZeroState(), gateH, 1))
	half := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Sqrt(0.5)))
	i := bytes.Index(blob, half)
	j := i + 8 + bytes.Index(blob[i+8:], half)
	if i < 0 || j < i+8 {
		t.Fatal("root weights of H|0⟩ not found in the blob")
	}
	// The root node's weights become (1e-11, 1): L2-normalized within
	// the decoder's tolerance, with the first weight negligible.
	binary.LittleEndian.PutUint64(blob[i:], math.Float64bits(1e-11))
	binary.LittleEndian.PutUint64(blob[j:], math.Float64bits(1))
	if e, err := New(2).DecodeVectorBinary(blob); err == nil {
		t.Fatalf("decoded %+v with children %+v, want an error", e, e.N.E)
	}
}

func TestSerializationMergesAcrossStates(t *testing.T) {
	// Decoding a diagram into a package that already holds parts of it
	// must share nodes (canonicity across deserialization).
	p := New(2)
	blob := p.AppendVectorBinary(nil, bellState(t, p))
	p2 := New(2)
	other := bellState(t, p2) // independently built
	back, err := p2.DecodeVectorBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != other.N {
		t.Fatal("deserialized diagram did not merge with existing nodes")
	}
}

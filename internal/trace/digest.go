package trace

import "fmt"

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvPow[k] is fnvPrime^k (mod 2^64): folding k zero bytes into an FNV-1a
// hash multiplies it by fnvPow[k], because (h^0)*p = h*p.
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// Digest folds the event stream into an order-sensitive FNV-1a hash: a
// complete fingerprint of a run. Two simulations with the same seed and
// the same code produce identical digests — the engine's determinism
// guarantee turned into a checkable (and CI-gated) property.
type Digest struct {
	h uint64
	n int64
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnvOffset} }

// Emit folds one event into the hash.
func (d *Digest) Emit(e Event) {
	d.n++
	h := word(d.h, uint64(e.Time))
	h = word(h, uint64(e.Kind))
	h = word(h, uint64(e.Proc))
	h = str(h, e.Cat)
	h = str(h, e.Name)
	h = str(h, e.Aux)
	h = word(h, uint64(e.Arg))
	d.h = word(h, uint64(e.Arg2))
}

// word folds v's eight little-endian bytes into h. Most words are short
// (kinds, lengths, small payloads), so the byte loop stops at the last
// non-zero byte and the zero tail is folded in one multiplication.
func word(h, v uint64) uint64 {
	i := 0
	for ; v != 0; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h * fnvPow[8-i]
}

// str folds s's length and then its bytes into h.
func str(h uint64, s string) uint64 {
	h = word(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Sum64 reports the current hash value.
func (d *Digest) Sum64() uint64 { return d.h }

// Events reports how many events have been folded in.
func (d *Digest) Events() int64 { return d.n }

// String renders the digest as 16 hex digits.
func (d *Digest) String() string { return fmt.Sprintf("%016x", d.h) }

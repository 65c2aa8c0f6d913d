package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Age-counter matrices (Count-Sketch-Reset) are the library's most
// expensive payload, so what touches one byte by byte lives here once:
// the saturating age step, the element-wise minimum, and a run-length
// codec whose decoders are one run iterator. The kernels take eight
// counters per uint64 where a span is long enough; the arithmetic is
// integer-exact, so results are those of a byte loop.

// CounterNever is the age sentinel "no source ever heard from" (the
// identity of the min-merge); real ages saturate one below it, at
// CounterMaxAge, so the two cannot be confused.
const (
	CounterNever  = uint8(255)
	CounterMaxAge = uint8(254)
)

const (
	swarLo  = 0x0101010101010101
	swarHi  = 0x8080808080808080
	swarLo7 = 0x7f7f7f7f7f7f7f7f
)

// ageWord adds one to every byte of x below CounterMaxAge. A byte is
// saturated (254 or 255) exactly when its top bit is set and its low
// seven bits are at least 126, which the +2 carries into bit 7; bytes
// that do move never carry out, so lanes stay independent.
func ageWord(x uint64) uint64 {
	saturated := ((x & swarLo7) + 2*swarLo) & x & swarHi
	return x + (saturated^swarHi)>>7
}

// minWord returns the byte-wise unsigned minimum of x and y. Per lane,
// bit 7 of d is set iff x's low seven bits are >= y's (the forced top
// bit keeps the subtraction from borrowing across lanes); x < y when
// the top bits differ in y's favour, or agree and the low bits say so.
func minWord(x, y uint64) uint64 {
	d := (x | swarHi) - (y &^ swarHi)
	lt := ((^x & y) | (^(x ^ y) &^ d)) & swarHi
	keep := lt | (lt - lt>>7) // 0xff in every lane where x < y
	return (x & keep) | (y &^ keep)
}

// AgeCounters increments every counter below CounterMaxAge by one —
// the per-round aging of Figure 5 step 2. Never stays Never.
func AgeCounters(c []uint8) {
	for len(c) >= 8 {
		binary.LittleEndian.PutUint64(c, ageWord(binary.LittleEndian.Uint64(c)))
		c = c[8:]
	}
	for i, v := range c {
		if v < CounterMaxAge {
			c[i] = v + 1
		}
	}
}

// MinCounters folds src into dst with an element-wise minimum — the
// gossip merge of Figure 5 step 5. The slices must have equal length.
func MinCounters(dst, src []uint8) {
	src = src[:len(dst)]
	for len(dst) >= 8 {
		x, y := binary.LittleEndian.Uint64(dst), binary.LittleEndian.Uint64(src)
		if x != y {
			binary.LittleEndian.PutUint64(dst, minWord(x, y))
		}
		dst, src = dst[8:], src[8:]
	}
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

// minRun folds one run of the constant v into dst.
func minRun(dst []uint8, v uint8) {
	for y := uint64(v) * swarLo; len(dst) >= 8; dst = dst[8:] {
		binary.LittleEndian.PutUint64(dst, minWord(binary.LittleEndian.Uint64(dst), y))
	}
	for i, c := range dst {
		if v < c {
			dst[i] = v
		}
	}
}

// runEnd returns the index one past the run of equal counters that
// starts at i. Most runs are a counter or two; once one has lasted four
// it is probably a Never plateau and is scanned a word at a time.
func runEnd(c []uint8, i int) int {
	v := c[i]
	j := i + 1
	for j < len(c) && c[j] == v {
		j++
		if j-i == 4 {
			same := uint64(v) * swarLo
			for ; j+8 <= len(c); j += 8 {
				if d := binary.LittleEndian.Uint64(c[j:]) ^ same; d != 0 {
					return j + bits.TrailingZeros64(d)>>3
				}
			}
		}
	}
	return j
}

// AppendCounters appends a run-length encoding of a counter matrix:
// a uvarint element count, then (uvarint runLength, byte value) pairs.
// Converged matrices compress 10-30×: the high levels are solid Never
// and neighboring counters share small ages.
func AppendCounters(dst []byte, counters []uint8) []byte {
	// Pairs are written by index into spare capacity, checked (and
	// grown append-style) once per run, not appended twice per run.
	const maxPair = binary.MaxVarintLen64 + 1
	dst = binary.AppendUvarint(dst, uint64(len(counters)))
	buf := dst[:cap(dst)]
	w := len(dst)
	for i := 0; i < len(counters); {
		v := counters[i]
		j := runEnd(counters, i)
		if len(buf)-w < maxPair {
			buf = slices.Grow(buf[:w], maxPair)
			buf = buf[:cap(buf)]
		}
		if run := j - i; run < 0x80 {
			buf[w] = uint8(run)
			w++
		} else {
			w += binary.PutUvarint(buf[w:], uint64(run))
		}
		buf[w] = v
		w++
		i = j
	}
	return buf[:w]
}

// runOp is what the run iterator does with each decoded run.
type runOp uint8

const (
	runCheck runOp = iota // structure only: nothing is written
	runFill               // dst[run] = v
	runMin                // dst[run] = min(dst[run], v)
)

// walkCounters is the run iterator every counter decoder shares. It
// reads the element count — which must equal len(dst), or for runCheck
// (which has no dst) lie in [1, maxElements] — then (runLength, value)
// pairs until they cover exactly that many elements, rejecting a
// malformed length, a missing value, a zero run and a run that
// overshoots, and applies op to dst per run.
func walkCounters(dst []uint8, src []byte, maxElements int, op runOp) (elements int, rest []byte, err error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: counters: bad element count")
	}
	if op == runCheck {
		if count == 0 || count > uint64(maxElements) {
			return 0, nil, fmt.Errorf("wire: counters: element count %d outside [1, %d]", count, maxElements)
		}
	} else if int(count) != len(dst) {
		return 0, nil, fmt.Errorf("wire: counters: got %d elements, want %d", count, len(dst))
	}
	src = src[n:]
	total := int(count)
	for at := 0; at < total; {
		var run int
		var v uint8
		if len(src) >= 2 && src[0]-1 < 0x7f {
			// One-byte run length in [1, 127]: nearly every run.
			run, v, src = int(src[0]), src[1], src[2:]
			if run > total-at {
				return 0, nil, fmt.Errorf("wire: counters: run %d overflows matrix at element %d", run, at)
			}
		} else {
			r, n := binary.Uvarint(src)
			if n <= 0 {
				return 0, nil, fmt.Errorf("wire: counters: bad run length at element %d", at)
			}
			src = src[n:]
			if len(src) < 1 {
				return 0, nil, fmt.Errorf("wire: counters: missing run value at element %d", at)
			}
			v, src = src[0], src[1:]
			// Compare in uint64 so an adversarial run length cannot wrap
			// int and slip past the bound.
			if r == 0 || r > uint64(total-at) {
				return 0, nil, fmt.Errorf("wire: counters: run %d overflows matrix at element %d", r, at)
			}
			run = int(r)
		}
		switch {
		case op == runFill:
			for i := at; i < at+run; i++ {
				dst[i] = v
			}
		case op == runCheck || v == CounterNever:
			// Nothing to write: Never is the identity of min, and most
			// of a converged matrix.
		case run == 1:
			if v < dst[at] {
				dst[at] = v
			}
		default:
			minRun(dst[at:at+run], v)
		}
		at += run
	}
	return total, src, nil
}

// DecodeCounters parses a run-length-encoded counter matrix into dst
// (which must have the exact expected length), returning the remaining
// bytes.
func DecodeCounters(dst []uint8, src []byte) (rest []byte, err error) {
	_, rest, err = walkCounters(dst, src, 0, runFill)
	return rest, err
}

// DecodeCountersMin parses a run-length-encoded counter matrix and
// folds it into dst with an element-wise minimum instead of assigning
// — the gossip merge every age-matrix protocol performs on receipt,
// applied straight off the wire with no intermediate matrix. dst must
// have the exact encoded length. On a malformed encoding the runs
// before the error have already been merged; a min-fold is monotone,
// so that leaves dst in a state some shorter valid message could have
// produced and the caller may simply drop the rest.
func DecodeCountersMin(dst []uint8, src []byte) (rest []byte, err error) {
	_, rest, err = walkCounters(dst, src, 0, runMin)
	return rest, err
}

// ValidateCounters checks a run-length-encoded counter matrix of a
// size not known in advance (a network datagram) without decoding it
// anywhere: it accepts exactly what DecodeCounters would accept into a
// matrix of the encoded size, provided that is in [1, maxElements],
// and returns the size and the remaining bytes. Bytes validated on
// arrival can be folded later with DecodeCountersMin knowing the fold
// cannot fail half-way.
func ValidateCounters(src []byte, maxElements int) (elements int, rest []byte, err error) {
	return walkCounters(nil, src, maxElements, runCheck)
}

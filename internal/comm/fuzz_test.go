package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzTCPFrame drives the TCP frame decoder with arbitrary byte streams:
// random headers, lengths, payloads and trailers must either decode to a
// frame whose re-encoding is bit-identical to the consumed prefix, or fail
// cleanly — never panic, never over-read, and never leak a pooled buffer.
// The cap passed to readFrame is small so a random 32-bit length cannot
// demand a gigantic lease; the transport's real cap differs only in
// magnitude, not in code path.
func FuzzTCPFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(sealFrame([]byte{}))
	f.Add(sealFrame([]byte("payload")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length, no body
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4, 0, 0, 0, 0})
	long := sealFrame(bytes.Repeat([]byte{0x5a}, 300))
	f.Add(long)
	f.Add(long[:len(long)-1]) // truncated trailer
	f.Fuzz(func(t *testing.T, raw []byte) {
		const cap = 1 << 16
		pool := newBufPool()
		r := bytes.NewReader(raw)
		buf, err := readFrame(r, pool, cap)
		if err != nil {
			if n := pool.outstanding(); n != 0 {
				t.Fatalf("failed decode leaked %d buffers", n)
			}
			return
		}
		if len(buf) > cap {
			t.Fatalf("decoded frame of %d bytes exceeds the %d cap", len(buf), cap)
		}
		// A frame that decoded must be exactly the consumed prefix re-sealed:
		// the decoder read header+payload+trailer and nothing more.
		consumed := len(raw) - r.Len()
		if want := sealFrame(buf); !bytes.Equal(want, raw[:consumed]) {
			t.Fatalf("decoded frame does not re-seal to the consumed %d bytes", consumed)
		}
		// The declared length must match what was delivered.
		if n := binary.BigEndian.Uint32(raw[:4]); int(n) != len(buf) {
			t.Fatalf("declared length %d, delivered %d", n, len(buf))
		}
		pool.release(buf)
		if n := pool.outstanding(); n != 0 {
			t.Fatalf("successful decode leaked %d buffers", n)
		}
	})
}

// FuzzChunkPartition drives the pipelined ring's segment partition with
// arbitrary n/p/m: the p×m sub-ranges must tile [0, n) exactly — every
// element covered exactly once, sub-ranges in order, never negative-length —
// and each segment must refine its ring chunk (so the pipelined schedule
// preserves the unpipelined accumulation order). Empty sub-ranges are legal
// (the tagged protocol ships a tag-only message for them, so there is no
// empty-send protocol violation to guard against at the transport level).
func FuzzChunkPartition(f *testing.F) {
	f.Add(0, 1, 1)
	f.Add(1, 2, 3)
	f.Add(257, 4, 8)
	f.Add(5, 7, 64)   // n < p*m: most sub-ranges empty
	f.Add(1000, 3, 1) // m=1 degenerates to the plain ring chunks
	f.Add(1<<20, 8, 16)
	f.Fuzz(func(t *testing.T, n, p, m int) {
		if n < 0 || n > 1<<22 || p < 1 || p > 64 || m < 1 || m > 1024 {
			t.Skip()
		}
		covered := 0
		for c := 0; c < p; c++ {
			clo, chi := chunkRange(n, p, c)
			if clo != covered || chi < clo || chi > n {
				t.Fatalf("chunk %d range [%d,%d) breaks tiling at %d", c, clo, chi, covered)
			}
			segCovered := clo
			for j := 0; j < m; j++ {
				lo, hi := pipeSegment(n, p, m, c, j)
				if lo != segCovered || hi < lo || hi > chi {
					t.Fatalf("chunk %d segment %d range [%d,%d) breaks tiling at %d (chunk [%d,%d))",
						c, j, lo, hi, segCovered, clo, chi)
				}
				slo, shi := segmentRange(clo, chi, m, j)
				if slo != lo || shi != hi {
					t.Fatalf("pipeSegment and segmentRange disagree: [%d,%d) vs [%d,%d)", lo, hi, slo, shi)
				}
				segCovered = hi
			}
			if segCovered != chi {
				t.Fatalf("chunk %d segments end at %d, chunk ends at %d", c, segCovered, chi)
			}
			covered = chi
		}
		if covered != n {
			t.Fatalf("chunks end at %d, want %d", covered, n)
		}
	})
}

// FuzzFloatCodec drives the wire codec with arbitrary byte payloads: decode
// followed by encode must reproduce the input bit-for-bit (including NaN
// payloads and negative zeros — the codec moves IEEE-754 bit patterns, not
// values), and the fused decode+accumulate path must agree with the scalar
// reference on every word.
func FuzzFloatCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // NaN bit patterns
	f.Add(bytes.Repeat([]byte{0x00}, 40))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}) // ±Inf
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		src := raw[:8*n]

		vals := make([]float64, n)
		decodeFloatsInto(vals, src)
		out := make([]byte, 8*n)
		encodeFloatsInto(out, vals)
		if !bytes.Equal(out, src) {
			t.Fatalf("decode/encode not bit-exact for %d words", n)
		}

		// Fused decode+accumulate == decode then scalar add, bit for bit.
		acc := make([]float64, n)
		ref := make([]float64, n)
		for i := range acc {
			acc[i] = float64(i) * 0.5
			ref[i] = acc[i] + vals[i]
		}
		addFloatsFrom(acc, src)
		for i := range acc {
			if math.Float64bits(acc[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("word %d: fused add %x, scalar add %x", i, math.Float64bits(acc[i]), math.Float64bits(ref[i]))
			}
		}
	})
}

package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/rfid-lion/lion/internal/dataset"
)

// decodeAllocFirstRead, decodeAllocPerByte and decodeAllocSlack bound what
// DecodeIngestExt may allocate for an n-byte body:
// decodeAllocFirstRead + decodeAllocPerByte·n + decodeAllocSlack.
//
// The first read is independent of n: whatever the header claims, the frame
// buffer's first allocation holds at most readStep (32 KiB), header
// included, which is an allocator size class of its own.
// The rest is linear in n, per input byte on a 64-bit platform:
//   - The frame buffer's later growth. Each read grows it to at most four
//     times the bytes that arrived, so these allocations sum to at most
//     4n·(1 + 1/4 + 1/16 + …) = 16n/3: 5.4 bytes.
//   - Decoded samples. A TaggedSample is 80 bytes and takes at least
//     minSampleBytes = 51 input bytes. The sample slice is sized to the
//     validated count and grows by doubling, so its capacity stays within
//     twice the samples the body can carry and its allocations, a doubling
//     series, within twice that: 4·80/51 = 6.3 bytes.
//   - The tag table. An entry takes at least 2 input bytes (length and one
//     byte) and costs a 16-byte string header plus its copy; a 1-byte tag
//     copies nothing, and a 2-byte one takes 3 input bytes and at most a
//     16-byte block: (16+16)/3 = 10.7 bytes.
//   - Trace extensions: 16 bytes per flagged frame of at least 21 bytes.
//
// These sum to under 24 bytes; 32 leaves room for size-class rounding.
// The slack covers the reader and the error value of a failed decode.
const (
	decodeAllocFirstRead = 32 << 10
	decodeAllocPerByte   = 32
	decodeAllocSlack     = 4 << 10
)

// FuzzWireDecode asserts the decoder's safety contract on arbitrary bytes:
// no panic, no over-allocation beyond what the input size justifies (the
// streaming DecodeIngestExt within decodeAllocPerByte bytes per input byte
// past its first read), and —
// when a frame does decode — every sample upholds the ingest guarantees
// (non-empty tag, finite floats, in-range timestamp) and re-encodes to a
// byte-identical frame.
func FuzzWireDecode(f *testing.F) {
	// Seeds: a valid frame, each rejection class, and varint edge shapes.
	valid, err := AppendFrame(nil, goldenSamples())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{magic0})
	f.Add([]byte{magic0, magic1, Version, 0})
	f.Add([]byte{magic0, magic1, Version + 1, 0, 0})
	f.Add([]byte{magic0, magic1, Version, 0xff, 0})
	f.Add(valid[:len(valid)-7])
	f.Add(appendUvarintFrame(MaxPayloadBytes + 1))
	f.Add(appendUvarintFrame(math.MaxUint64))
	// A payload-length varint of 10 continuation bytes and a terminator:
	// overlong, so ErrTooLarge whether decoded whole or streamed.
	f.Add([]byte("LW\x01\x01\xff\xff\xff\x80\x86\x86\x86\x86\x86\x860"))
	// Payload length claims 5 bytes, carries a huge sample count varint.
	f.Add(append([]byte{magic0, magic1, Version, 0, 5}, 0x80, 0x80, 0x80, 0x80, 0x01))
	// Two concatenated valid frames exercise the streaming decoder.
	f.Add(append(bytes.Clone(valid), valid...))
	// Trace-extension seeds: a valid flagged frame, the flagged frame
	// truncated at every byte of the 16-byte extension (header is 4 magic
	// bytes + a 2-byte payload-length varint here), a flagged frame whose
	// payload is shorter than the extension, and undefined flag bits.
	ext := Ext{TraceID: 0x0123456789abcdef, RouterRecvUnixNano: 1 << 40}
	traced, err := AppendFrameExt(nil, goldenSamples(), &ext)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traced)
	headLen := 4
	for traced[headLen]&0x80 != 0 {
		headLen++
	}
	headLen++ // past the final payload-length varint byte
	for i := 0; i <= extBytes; i++ {
		f.Add(bytes.Clone(traced[:headLen+i]))
	}
	f.Add(appendFramed(nil, FlagTrace, []byte{1, 2, 3}))
	f.Add(mutate(valid, 3, 0x80))
	f.Add(mutate(traced, 3, 0x81))
	// A traced frame followed by a plain frame, and the reverse, exercise
	// the first-extension-wins rule.
	f.Add(append(bytes.Clone(traced), valid...))
	f.Add(append(bytes.Clone(valid), traced...))

	f.Fuzz(func(t *testing.T, b []byte) {
		// The streaming DecodeIngestExt either fails as DecodeFrameExt
		// applied frame after frame does, or returns exactly its samples and
		// the first extension.
		want, exts, werr := decodeFrames(b)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, gext, gerr := DecodeIngestExt(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocFirstRead+decodeAllocPerByte*len(b)+decodeAllocSlack); alloc > bound {
			t.Fatalf("DecodeIngestExt allocated %d bytes for a %d-byte body, bound %d", alloc, len(b), bound)
		}
		for _, sentinel := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrTooLarge, ErrCorrupt, ErrSample} {
			if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
				t.Fatalf("DecodeIngestExt err %v, frame after frame %v", gerr, werr)
			}
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("DecodeIngestExt err %v, frame after frame %v", gerr, werr)
		}
		if gerr == nil {
			if len(got) != len(want) {
				t.Fatalf("DecodeIngestExt decoded %d samples, frame after frame %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sample %d: DecodeIngestExt %+v, frame after frame %+v", i, got[i], want[i])
				}
			}
			var first *Ext
			for _, e := range exts {
				if e != nil {
					first = e
					break
				}
			}
			if (gext == nil) != (first == nil) || (gext != nil && *gext != *first) {
				t.Fatalf("DecodeIngestExt ext %+v, first frame ext %+v", gext, first)
			}
		}

		samples, fext, n, err := DecodeFrameExt(b, nil)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v with %d bytes consumed", err, n)
			}
			return
		}
		if fext != nil && b[3]&FlagTrace == 0 {
			t.Fatalf("unflagged frame produced extension %+v", fext)
		}
		if fext == nil && b[3]&FlagTrace != 0 {
			t.Fatal("flagged frame decoded without an extension")
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// A successful decode cannot have materialised more samples than the
		// consumed bytes can encode: each sample takes at least minSampleBytes.
		if len(samples)*minSampleBytes > n {
			t.Fatalf("%d samples out of %d bytes — over-allocation", len(samples), n)
		}
		for i, s := range samples {
			if s.Tag == "" {
				t.Fatalf("sample %d: empty tag", i)
			}
			if math.Abs(s.TimeS) > dataset.MaxIngestTimeS {
				t.Fatalf("sample %d: time %v out of range", i, s.TimeS)
			}
			for _, v := range [...]float64{s.TimeS, s.X, s.Y, s.Z, s.Phase, s.RSSI} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("sample %d: non-finite field", i)
				}
			}
		}
		// Decoded samples re-encode to a decodable frame carrying the same
		// values (the encoder canonicalises varint widths, so compare the
		// decoded forms, not the raw bytes).
		re, err := AppendFrame(nil, samples)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, m, err := DecodeFrame(re, nil)
		if err != nil || m != len(re) {
			t.Fatalf("re-decode: %v (consumed %d of %d)", err, m, len(re))
		}
		if len(back) != len(samples) {
			t.Fatalf("re-decode count %d, want %d", len(back), len(samples))
		}
		for i := range back {
			if back[i] != samples[i] {
				t.Fatalf("sample %d changed across re-encode:\n got  %+v\n want %+v",
					i, back[i], samples[i])
			}
		}
	})
}

// decodeFrames decodes b frame after frame with DecodeFrameExt, returning
// every sample, each frame's extension, and the first error.
func decodeFrames(b []byte) ([]dataset.TaggedSample, []*Ext, error) {
	var out []dataset.TaggedSample
	var exts []*Ext
	for len(b) > 0 {
		var ext *Ext
		var n int
		var err error
		if out, ext, n, err = DecodeFrameExt(b, out); err != nil {
			return nil, nil, err
		}
		exts = append(exts, ext)
		b = b[n:]
	}
	return out, exts, nil
}

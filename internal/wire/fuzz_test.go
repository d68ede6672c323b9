package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/rfid-lion/lion/internal/dataset"
)

// FuzzWireDecode asserts the decoder's safety contract on arbitrary bytes:
// no panic, no over-allocation beyond what the input size justifies, and —
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
		got, gext, gerr := DecodeIngestExt(bytes.NewReader(b))
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

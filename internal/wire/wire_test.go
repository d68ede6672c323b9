package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/dataset"
)

// goldenSamples is a fixed batch covering the interesting encodings: two
// tags (interned once each), negative ints (zigzag), zero fields, and float
// values without short decimal forms.
func goldenSamples() []dataset.TaggedSample {
	return []dataset.TaggedSample{
		{Tag: "T1", TimeS: 0.25, X: 1, Y: -2, Z: 0.5, Phase: math.Pi, RSSI: -61.5, Segment: 0, Channel: 3},
		{Tag: "T2", TimeS: 0.5, X: -0.1, Y: 0, Z: 0, Phase: -1.5, RSSI: 0, Segment: -2, Channel: 0},
		{Tag: "T1", TimeS: 0.75, X: 0.3, Y: 0.8, Z: 0.4, Phase: 2.125, RSSI: -60, Segment: 1, Channel: 7},
	}
}

// goldenPayloadHex is the encoded payload (tag table + sample records) of
// goldenSamples, shared by the plain and traced frame goldens.
const goldenPayloadHex = "02" + // 2 tags
	"025431" + "025432" + // "T1", "T2"
	"03" + // 3 samples
	"00" + "000000000000d03f" + "000000000000f03f" + "00000000000000c0" +
	"000000000000e03f" + "182d4454fb210940" + "0000000000c04ec0" + "00" + "06" +
	"01" + "000000000000e03f" + "9a9999999999b9bf" + "0000000000000000" +
	"0000000000000000" + "000000000000f8bf" + "0000000000000000" + "03" + "00" +
	"00" + "000000000000e83f" + "333333333333d33f" + "9a9999999999e93f" +
	"9a9999999999d93f" + "0000000000000140" + "0000000000004ec0" + "02" + "0e"

// goldenFrameHex freezes the version-1 frame layout byte for byte. Any
// change to the header, varint placement, field order, or float encoding
// fails here until the golden (and DESIGN.md section 12) is updated
// deliberately — the wire format is a cross-process compatibility contract.
const goldenFrameHex = "4c570100a101" + // 'L' 'W' version=1 flags=0 payload=161 (varint a1 01)
	goldenPayloadHex

// goldenExt is the fixed trace extension used by the traced golden.
var goldenExt = Ext{TraceID: 0x0123456789abcdef, RouterRecvUnixNano: 1_000_000_000_000_000_000}

// goldenTracedFrameHex freezes the FlagTrace layout: flags=0x01, the payload
// length grows by the fixed 16-byte extension (161+16=177, varint b1 01), and
// the extension (trace id then router receive nanos, both little-endian)
// precedes the unchanged tag table.
const goldenTracedFrameHex = "4c570101b101" + // 'L' 'W' version=1 flags=1 payload=177
	"efcdab8967452301" + // trace id 0x0123456789abcdef LE
	"000064a7b3b6e00d" + // router recv 1e18 ns LE
	goldenPayloadHex

func TestWireGolden(t *testing.T) {
	b, err := AppendFrame(nil, goldenSamples())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenFrameHex {
		t.Errorf("frame layout changed:\n got  %s\n want %s", got, goldenFrameHex)
	}
	// The golden bytes decode back to the exact input.
	raw, err := hex.DecodeString(goldenFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	out, n, err := DecodeFrame(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Errorf("consumed %d of %d bytes", n, len(raw))
	}
	if !reflect.DeepEqual(out, goldenSamples()) {
		t.Errorf("golden decode mismatch:\n got  %+v\n want %+v", out, goldenSamples())
	}
	// A plain frame decodes with a nil extension through the Ext API too.
	_, ext, _, err := DecodeFrameExt(raw, nil)
	if err != nil || ext != nil {
		t.Errorf("plain frame ext = %+v, err = %v, want nil/nil", ext, err)
	}
}

func TestWireTracedGolden(t *testing.T) {
	ext := goldenExt
	b, err := AppendFrameExt(nil, goldenSamples(), &ext)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenTracedFrameHex {
		t.Errorf("traced frame layout changed:\n got  %s\n want %s", got, goldenTracedFrameHex)
	}
	raw, err := hex.DecodeString(goldenTracedFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	out, gotExt, n, err := DecodeFrameExt(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Errorf("consumed %d of %d bytes", n, len(raw))
	}
	if gotExt == nil || *gotExt != goldenExt {
		t.Errorf("decoded ext = %+v, want %+v", gotExt, goldenExt)
	}
	if !reflect.DeepEqual(out, goldenSamples()) {
		t.Errorf("traced golden decode mismatch:\n got  %+v\n want %+v", out, goldenSamples())
	}
	// DecodeFrame (the ext-blind entry point) still decodes the samples.
	out2, n2, err := DecodeFrame(raw, nil)
	if err != nil || n2 != len(raw) || !reflect.DeepEqual(out2, goldenSamples()) {
		t.Errorf("DecodeFrame on traced frame: n=%d err=%v", n2, err)
	}
}

// TestAppendFramesTraced proves the encode helper carries the extension on
// every frame of a split batch and none on a following plain frame, and that
// DecodeIngestExt surfaces the first extension seen.
func TestAppendFramesTraced(t *testing.T) {
	var in []dataset.TaggedSample
	for i := 0; i < DefaultBatch+300; i++ {
		in = append(in, dataset.TaggedSample{Tag: "T1", TimeS: float64(i) * 0.01, Phase: 1})
	}
	ext := goldenExt
	stream, err := AppendFrames(nil, in, &ext) // a 2-frame split
	if err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendFrames(stream, goldenSamples(), nil); err != nil { // plain tail frame
		t.Fatal(err)
	}

	_, exts, err := decodeFrames(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 3 {
		t.Fatalf("encoded %d frames, want 3", len(exts))
	}
	for i, fext := range exts[:2] {
		if fext == nil || *fext != goldenExt {
			t.Errorf("split frame %d ext = %+v, want %+v", i, fext, goldenExt)
		}
	}
	if exts[2] != nil {
		t.Errorf("plain tail frame carries ext %+v", exts[2])
	}

	samples, gotExt, err := DecodeIngestExt(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if gotExt == nil || *gotExt != goldenExt {
		t.Errorf("DecodeIngestExt ext = %+v, want %+v", gotExt, goldenExt)
	}
	if !reflect.DeepEqual(samples, append(in, goldenSamples()...)) {
		t.Errorf("decoded %d samples, want the %d encoded", len(samples), len(in)+len(goldenSamples()))
	}

	// The first extension seen wins, even behind a plain frame.
	later := Ext{TraceID: 7}
	mixed, err := AppendFrames(nil, goldenSamples(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Ext{&ext, &later} {
		if mixed, err = AppendFrames(mixed, goldenSamples(), e); err != nil {
			t.Fatal(err)
		}
	}
	if _, gotExt, err = DecodeIngestExt(bytes.NewReader(mixed)); err != nil || gotExt == nil || *gotExt != goldenExt {
		t.Errorf("plain-then-traced stream: ext = %+v, err = %v, want %+v", gotExt, err, goldenExt)
	}
}

func TestWireRoundTrip(t *testing.T) {
	in := goldenSamples()
	// Values that must survive bit-exactly, including denormals and extremes.
	in = append(in, dataset.TaggedSample{
		Tag: "edge", TimeS: -dataset.MaxIngestTimeS, X: math.SmallestNonzeroFloat64,
		Y: -math.MaxFloat64, Z: 1e-300, Phase: -0.0, RSSI: 1e308,
		Segment: math.MaxInt32, Channel: -math.MaxInt32,
	})
	b, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, n, err := DecodeFrame(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("consumed %d of %d bytes", n, len(b))
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i].Tag != out[i].Tag || in[i].Segment != out[i].Segment || in[i].Channel != out[i].Channel {
			t.Errorf("sample %d: got %+v want %+v", i, out[i], in[i])
		}
		pairs := [][2]float64{
			{in[i].TimeS, out[i].TimeS}, {in[i].X, out[i].X}, {in[i].Y, out[i].Y},
			{in[i].Z, out[i].Z}, {in[i].Phase, out[i].Phase}, {in[i].RSSI, out[i].RSSI},
		}
		for j, p := range pairs {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Errorf("sample %d field %d: bits %x != %x", i, j, math.Float64bits(p[1]), math.Float64bits(p[0]))
			}
		}
	}
}

func TestAppendFramesStream(t *testing.T) {
	var in []dataset.TaggedSample
	for i := 0; i < 2*DefaultBatch+1000; i++ {
		in = append(in, dataset.TaggedSample{
			Tag: "T" + string(rune('A'+i%7)), TimeS: float64(i) * 0.01,
			X: float64(i) * 0.001, Phase: float64(i%628) / 100, Channel: i % 16,
		})
	}
	var buf bytes.Buffer
	// Codec.Encode splits at DefaultBatch: 3 frames.
	if err := (Codec{}).Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	if _, exts, err := decodeFrames(buf.Bytes()); err != nil || len(exts) != 3 {
		t.Errorf("encoded %d frames (err %v), want 3", len(exts), err)
	}
	out, err := DecodeIngest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("stream round trip mismatch (%d in, %d out)", len(in), len(out))
	}
	// No samples encode to an empty stream, which decodes to no samples.
	buf.Reset()
	if err := (Codec{}).Encode(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("empty batch: %d bytes, err = %v", buf.Len(), err)
	}
	if out, err := DecodeIngest(&buf); err != nil || len(out) != 0 {
		t.Fatalf("empty stream: %d samples, err = %v", len(out), err)
	}
}

func TestCodecImplementsDatasetCodec(t *testing.T) {
	var c dataset.Codec = Codec{}
	if c.Name() != "wire" || c.ContentType() != ContentType {
		t.Errorf("codec identity: %q %q", c.Name(), c.ContentType())
	}
	var buf bytes.Buffer
	if err := c.Encode(&buf, goldenSamples()); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeIngest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, goldenSamples()) {
		t.Error("codec round trip mismatch")
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	good, err := AppendFrame(nil, goldenSamples())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", good[:3], ErrTruncated},
		{"bad magic", append([]byte("XY"), good[2:]...), ErrBadMagic},
		{"future version", mutate(good, 2, 9), ErrVersion},
		{"undefined flag bits", mutate(good, 3, 0x80), ErrCorrupt},
		{"undefined flag alongside trace flag", mutate(good, 3, 0x81), ErrCorrupt},
		{"flagged frame with payload shorter than ext", flaggedShortExt(), ErrCorrupt},
		{"truncated payload", good[:len(good)-5], ErrTruncated},
		{"oversized length", appendUvarintFrame(MaxPayloadBytes + 1), ErrTooLarge},
		{"trailing garbage inside payload", growPayload(good), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeFrame(tc.b, nil); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// mutate returns a copy of b with b[i] = v.
func mutate(b []byte, i int, v byte) []byte {
	out := bytes.Clone(b)
	out[i] = v
	return out
}

// appendUvarintFrame builds a header claiming the given payload size.
func appendUvarintFrame(size uint64) []byte {
	b := []byte{magic0, magic1, Version, 0}
	for size >= 0x80 {
		b = append(b, byte(size)|0x80)
		size >>= 7
	}
	return append(b, byte(size))
}

// growPayload inflates the declared payload length by one and appends a
// stray byte, producing trailing bytes after the last sample record.
func growPayload(frame []byte) []byte {
	samples, _, err := DecodeFrame(frame, nil)
	if err != nil {
		panic(err)
	}
	payload, err := appendPayload(nil, samples)
	if err != nil {
		panic(err)
	}
	payload = append(payload, 0x00)
	return appendFramed(nil, 0, payload)
}

// flaggedShortExt builds a frame with FlagTrace set whose whole payload is
// smaller than the 16-byte trace extension.
func flaggedShortExt() []byte {
	return appendFramed(nil, FlagTrace, []byte{0x01, 0x02, 0x03})
}

func TestDecodeRejectsNonFinite(t *testing.T) {
	// Encode a valid frame, then splice NaN bits into the phase field of the
	// first sample. The decoder must reject it: JSON cannot carry NaN, and
	// the binary path keeps that guarantee.
	samples := []dataset.TaggedSample{{Tag: "T", TimeS: 1, Phase: 2.5}}
	b, err := AppendFrame(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.Float64bits(math.NaN())
	idx := bytes.Index(b, le64(math.Float64bits(2.5)))
	if idx < 0 {
		t.Fatal("phase bits not found")
	}
	copy(b[idx:], le64(nan))
	if _, _, err := DecodeFrame(b, nil); !errors.Is(err, ErrSample) {
		t.Errorf("NaN phase: err = %v, want ErrSample", err)
	}

	// Same for an out-of-range timestamp.
	b2, err := AppendFrame(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	idx = bytes.Index(b2, le64(math.Float64bits(1)))
	if idx < 0 {
		t.Fatal("time bits not found")
	}
	copy(b2[idx:], le64(math.Float64bits(2*dataset.MaxIngestTimeS)))
	if _, _, err := DecodeFrame(b2, nil); !errors.Is(err, ErrSample) {
		t.Errorf("huge timestamp: err = %v, want ErrSample", err)
	}
}

func le64(bits uint64) []byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(bits >> (8 * i))
	}
	return b[:]
}

func TestAppendFrameRejectsBadSamples(t *testing.T) {
	if _, err := AppendFrame(nil, []dataset.TaggedSample{{Tag: ""}}); !errors.Is(err, ErrSample) {
		t.Errorf("empty tag: %v", err)
	}
	long := strings.Repeat("x", MaxTagBytes+1)
	if _, err := AppendFrame(nil, []dataset.TaggedSample{{Tag: long}}); !errors.Is(err, ErrSample) {
		t.Errorf("oversized tag: %v", err)
	}
}

func TestDecodeIngestCleanAndDirtyEOF(t *testing.T) {
	one, err := AppendFrame(nil, goldenSamples())
	if err != nil {
		t.Fatal(err)
	}
	full := append(bytes.Clone(one), one...)
	if out, err := DecodeIngest(bytes.NewReader(full)); err != nil || len(out) != 2*len(goldenSamples()) {
		t.Fatalf("clean end: %d samples, err = %v", len(out), err)
	}
	// The second frame cut inside its fixed header, its length varint, and
	// its payload: each is a stream ending mid-frame.
	for _, cut := range []int{len(one) + 3, len(one) + 5, len(full) - 3} {
		if _, err := DecodeIngest(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) {
			t.Errorf("stream cut at %d of %d bytes: err = %v, want ErrTruncated", cut, len(full), err)
		}
	}
	// A bad header is reported as such even when the stream ends right after
	// it, exactly as DecodeFrame reports the same bytes.
	if _, err := DecodeIngest(bytes.NewReader(mutate(one, 0, 'X')[:4])); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic then end: err = %v, want ErrBadMagic", err)
	}
}

// TestDecodeIngestLyingLengthAllocatesWhatArrives: a header that claims
// the largest allowed payload but is followed by only 8 bytes must fail as
// truncated without allocating anywhere near the claimed 16 MiB.
func TestDecodeIngestLyingLengthAllocatesWhatArrives(t *testing.T) {
	body := append(appendUvarintFrame(MaxPayloadBytes-1), make([]byte, 8)...)
	if _, err := DecodeIngest(bytes.NewReader(body)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		DecodeIngest(bytes.NewReader(body))
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 64<<10 {
		t.Errorf("a truncated frame claiming %d bytes allocated %d bytes per decode, want < 64 KiB",
			MaxPayloadBytes-1, perCall)
	}
}

func TestDecodeIngestTotalBound(t *testing.T) {
	// Many frames whose total crosses MaxIngestSamples must be refused with
	// the dataset sentinel, mirroring the NDJSON path.
	one := make([]dataset.TaggedSample, 1<<12)
	for i := range one {
		one[i] = dataset.TaggedSample{Tag: "T", TimeS: float64(i)}
	}
	frame, err := AppendFrame(nil, one)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i <= dataset.MaxIngestSamples/len(one); i++ {
		buf.Write(frame)
	}
	if _, err := DecodeIngest(&buf); !errors.Is(err, dataset.ErrIngestTooLarge) {
		t.Errorf("err = %v, want ErrIngestTooLarge", err)
	}
}

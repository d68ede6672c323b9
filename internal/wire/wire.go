// Package wire is the binary ingest codec: a length-prefixed, versioned
// frame format for batches of tagged samples, replacing per-line JSON
// decoding on the hot ingest path. NDJSON (internal/dataset) remains the
// compatibility format; the two codecs carry identical information and
// round-trip float64 fields bit-exactly.
//
// # Frame layout (version 1, little-endian, frozen by TestWireGolden)
//
//	offset  size      field
//	0       1         magic 'L' (0x4C)
//	1       1         magic 'W' (0x57)
//	2       1         version (1)
//	3       1         flags (bit 0 = trace extension; other bits must be 0)
//	4       uvarint   payload length in bytes
//	...     payload
//
// Payload (when flags bit 0 — FlagTrace — is set, a fixed 16-byte trace
// extension precedes the tag table and is counted in the payload length):
//
//	8 bytes   trace id            uint64 LE   (FlagTrace only)
//	8 bytes   router receive time int64 LE, unix nanoseconds (FlagTrace only)
//	uvarint   tagCount, then tagCount × { uvarint len; len bytes UTF-8 }
//	uvarint   sampleCount, then sampleCount × sample record
//
// Sample record:
//
//	uvarint   tag index into the frame's tag table
//	8 bytes   time_s     float64 bits
//	8 bytes   x_m        float64 bits
//	8 bytes   y_m        float64 bits
//	8 bytes   z_m        float64 bits
//	8 bytes   phase_rad  float64 bits
//	8 bytes   rssi_dbm   float64 bits
//	uvarint   zigzag(segment)
//	uvarint   zigzag(channel)
//
// The per-frame tag table exists because ingest batches concentrate on few
// tags: the decoder allocates each tag string once per frame, not once per
// sample. Frames are self-contained — any concatenation of frames is a valid
// stream, so shards can receive the router's re-batched frames and files
// written by `lionsim -format wire` can simply be catted together.
//
// Decoding is defensive: truncated frames, bad magic/version, length
// overflows, and out-of-range counts return errors without panicking, and
// allocation is bounded by the bytes that actually arrive, never by an
// attacker supplied count or length. Binary frames, unlike JSON, can encode
// NaN/Inf, so the decoder additionally rejects non-finite floats to keep the
// DecodeIngest guarantee of internal/dataset intact.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/rfid-lion/lion/internal/dataset"
)

// Version is the frame version this package encodes and the only one it
// accepts.
const Version = 1

// ContentType is the HTTP content type of a wire-framed request body.
const ContentType = "application/x-lion-wire"

// Frame limits. Decoders reject frames beyond them before allocating.
const (
	// MaxPayloadBytes bounds one frame's payload (16 MiB).
	MaxPayloadBytes = 16 << 20
	// MaxFrameTags bounds the per-frame tag table.
	MaxFrameTags = 1 << 16
	// MaxTagBytes bounds one tag id.
	MaxTagBytes = 255
	// minSampleBytes is the smallest possible sample record: three 1-byte
	// varints plus six fixed float64s. Claimed sample counts are checked
	// against remaining payload / minSampleBytes before any allocation.
	minSampleBytes = 3 + 6*8
)

// magic0, magic1 open every frame.
const (
	magic0 = 'L'
	magic1 = 'W'
)

// FlagTrace marks a frame carrying the 16-byte trace extension at the start
// of its payload: the pipeline trace id and the router's receive timestamp.
// It is the only defined flag bit; frames with any other bit set are corrupt.
//
// Compatibility: decoders predating this flag reject flagged frames
// (non-zero flags were ErrCorrupt in the original version 1). lionroute flags
// every sampled batch it forwards, so a cluster needs shards whose liond
// decodes FlagTrace, which every liond built with pipeline tracing does.
// Plain frames remain byte-identical to the original layout.
const FlagTrace byte = 0x01

// flagMask is the union of all defined flag bits.
const flagMask = FlagTrace

// extBytes is the fixed size of the trace extension.
const extBytes = 16

// Ext is the decoded trace extension of one flagged frame.
type Ext struct {
	// TraceID is the pipeline trace id assigned by the sampling router.
	TraceID uint64
	// RouterRecvUnixNano is the wall clock at which the router accepted the
	// batch, unix nanoseconds — the zero point of the end-to-end staleness
	// clock for the samples in this frame.
	RouterRecvUnixNano int64
}

// appendExt encodes the trace extension.
func appendExt(dst []byte, ext *Ext) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ext.TraceID)
	return binary.LittleEndian.AppendUint64(dst, uint64(ext.RouterRecvUnixNano))
}

// decodeExt splits the trace extension off the front of a flagged payload.
func decodeExt(p []byte) (*Ext, []byte, error) {
	if len(p) < extBytes {
		return nil, p, fmt.Errorf("%w: %d payload bytes for a %d-byte trace extension",
			ErrCorrupt, len(p), extBytes)
	}
	ext := &Ext{
		TraceID:            binary.LittleEndian.Uint64(p[0:]),
		RouterRecvUnixNano: int64(binary.LittleEndian.Uint64(p[8:])),
	}
	return ext, p[extBytes:], nil
}

// Errors returned by the decoder. ErrTruncated means the input ended inside
// a frame — a streaming caller that buffers may read more and retry; all
// other errors are permanent for that stream.
var (
	ErrBadMagic  = errors.New("wire: bad frame magic")
	ErrVersion   = errors.New("wire: unsupported frame version")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrTooLarge  = errors.New("wire: frame exceeds size limits")
	ErrCorrupt   = errors.New("wire: corrupt frame")
	ErrSample    = errors.New("wire: bad sample")
)

// AppendFrame appends one encoded frame carrying samples to dst and returns
// the extended slice. Tags must be non-empty and at most MaxTagBytes bytes;
// one frame holds at most MaxFrameTags distinct tags and its payload must
// stay within MaxPayloadBytes. Callers with larger batches split them across
// frames (AppendFrames splits at DefaultBatch).
func AppendFrame(dst []byte, samples []dataset.TaggedSample) ([]byte, error) {
	return AppendFrameExt(dst, samples, nil)
}

// AppendFrameExt is AppendFrame with an optional trace extension: a non-nil
// ext sets FlagTrace and prefixes the payload with the 16-byte extension. A
// nil ext produces a plain frame, byte-identical to AppendFrame.
func AppendFrameExt(dst []byte, samples []dataset.TaggedSample, ext *Ext) ([]byte, error) {
	var payload []byte
	var flags byte
	if ext != nil {
		payload = appendExt(nil, ext)
		flags = FlagTrace
	}
	payload, err := appendPayload(payload, samples)
	if err != nil {
		return dst, err
	}
	return appendFramed(dst, flags, payload), nil
}

// appendFramed wraps an already-built payload in the frame header.
func appendFramed(dst []byte, flags byte, payload []byte) []byte {
	dst = append(dst, magic0, magic1, Version, flags)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// appendPayload encodes the tag table and sample records.
func appendPayload(dst []byte, samples []dataset.TaggedSample) ([]byte, error) {
	tags := make([]string, 0, 8)
	index := make(map[string]int, 8)
	for i, s := range samples {
		if s.Tag == "" {
			return nil, fmt.Errorf("%w: sample %d has no tag", ErrSample, i)
		}
		if len(s.Tag) > MaxTagBytes {
			return nil, fmt.Errorf("%w: sample %d tag is %d bytes (max %d)",
				ErrSample, i, len(s.Tag), MaxTagBytes)
		}
		if _, ok := index[s.Tag]; !ok {
			if len(tags) == MaxFrameTags {
				return nil, fmt.Errorf("%w: over %d distinct tags in one frame",
					ErrTooLarge, MaxFrameTags)
			}
			index[s.Tag] = len(tags)
			tags = append(tags, s.Tag)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(tags)))
	for _, tag := range tags {
		dst = binary.AppendUvarint(dst, uint64(len(tag)))
		dst = append(dst, tag...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	for _, s := range samples {
		dst = binary.AppendUvarint(dst, uint64(index[s.Tag]))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.TimeS))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Y))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Z))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Phase))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.RSSI))
		dst = binary.AppendUvarint(dst, zigzag(s.Segment))
		dst = binary.AppendUvarint(dst, zigzag(s.Channel))
	}
	if len(dst) > MaxPayloadBytes {
		return nil, fmt.Errorf("%w: payload %d bytes (max %d)", ErrTooLarge, len(dst), MaxPayloadBytes)
	}
	return dst, nil
}

// DecodeFrame parses one frame from the start of b, appending its samples to
// into. It returns the extended slice and the number of bytes consumed.
// When b holds the beginning of a valid frame but ends early, the error is
// ErrTruncated (wrapped), and a buffering caller may retry with more bytes.
func DecodeFrame(b []byte, into []dataset.TaggedSample) ([]dataset.TaggedSample, int, error) {
	out, _, n, err := DecodeFrameExt(b, into)
	return out, n, err
}

// DecodeFrameExt is DecodeFrame surfacing the trace extension of a flagged
// frame: ext is nil for plain frames. Frames with undefined flag bits are
// rejected with ErrCorrupt, exactly as all non-zero flags were before the
// extension existed.
func DecodeFrameExt(b []byte, into []dataset.TaggedSample) ([]dataset.TaggedSample, *Ext, int, error) {
	flags, size, head, err := parseHeader(b)
	if err != nil {
		return into, nil, 0, err
	}
	if len(b)-head < size {
		return into, nil, 0, fmt.Errorf("%w: payload %d of %d bytes", ErrTruncated, len(b)-head, size)
	}
	payload := b[head : head+size]
	var ext *Ext
	if flags&FlagTrace != 0 {
		if ext, payload, err = decodeExt(payload); err != nil {
			return into, nil, 0, err
		}
	}
	out, err := decodePayload(payload, into)
	if err != nil {
		return into, nil, 0, err
	}
	return out, ext, head + size, nil
}

// parseHeader checks the frame header at the start of b: magic, version,
// flag bits, and the payload-length varint against MaxPayloadBytes. It
// returns the flags, the payload length and the header length. A b that
// ends inside the header fails with ErrTruncated.
func parseHeader(b []byte) (flags byte, size, head int, err error) {
	if len(b) < 4 {
		return 0, 0, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if b[0] != magic0 || b[1] != magic1 {
		return 0, 0, 0, fmt.Errorf("%w: % x", ErrBadMagic, b[:2])
	}
	if b[2] != Version {
		return 0, 0, 0, fmt.Errorf("%w: version %d (want %d)", ErrVersion, b[2], Version)
	}
	flags = b[3]
	if flags&^flagMask != 0 {
		return 0, 0, 0, fmt.Errorf("%w: undefined flag bits %#x", ErrCorrupt, flags&^flagMask)
	}
	v, n := binary.Uvarint(b[4:])
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("%w: payload length varint", ErrTruncated)
	}
	if n < 0 || v > MaxPayloadBytes {
		return 0, 0, 0, fmt.Errorf("%w: payload length %d (max %d)", ErrTooLarge, v, MaxPayloadBytes)
	}
	return flags, int(v), 4 + n, nil
}

// decodePayload parses the tag table and sample records of one frame.
func decodePayload(p []byte, into []dataset.TaggedSample) ([]dataset.TaggedSample, error) {
	tagCount, p, err := uvarint(p, "tag count")
	if err != nil {
		return into, err
	}
	if tagCount > MaxFrameTags {
		return into, fmt.Errorf("%w: %d tags (max %d)", ErrTooLarge, tagCount, MaxFrameTags)
	}
	// Each tag table entry takes at least 2 bytes (length varint + 1 byte).
	if tagCount > uint64(len(p))/2 {
		return into, fmt.Errorf("%w: tag count %d exceeds payload", ErrCorrupt, tagCount)
	}
	tags := make([]string, tagCount)
	for i := range tags {
		var size uint64
		size, p, err = uvarint(p, "tag length")
		if err != nil {
			return into, err
		}
		if size == 0 || size > MaxTagBytes {
			return into, fmt.Errorf("%w: tag %d length %d (want 1..%d)", ErrCorrupt, i, size, MaxTagBytes)
		}
		if uint64(len(p)) < size {
			return into, fmt.Errorf("%w: tag %d bytes", ErrTruncated, i)
		}
		tags[i] = string(p[:size])
		p = p[size:]
	}
	sampleCount, p, err := uvarint(p, "sample count")
	if err != nil {
		return into, err
	}
	if sampleCount > dataset.MaxIngestSamples {
		return into, fmt.Errorf("%w: %d samples (max %d)", ErrTooLarge, sampleCount, dataset.MaxIngestSamples)
	}
	if sampleCount > uint64(len(p))/minSampleBytes {
		return into, fmt.Errorf("%w: sample count %d exceeds payload", ErrCorrupt, sampleCount)
	}
	if cap(into)-len(into) < int(sampleCount) {
		// Grow geometrically so DecodeIngestExt's frame-by-frame appends stay
		// amortised O(1) per sample; the fresh capacity is still bounded by
		// the samples decoded so far plus this frame's validated count.
		newCap := max(2*cap(into), len(into)+int(sampleCount))
		grown := make([]dataset.TaggedSample, len(into), newCap)
		copy(grown, into)
		into = grown
	}
	for i := uint64(0); i < sampleCount; i++ {
		var ts dataset.TaggedSample
		var idx uint64
		idx, p, err = uvarint(p, "tag index")
		if err != nil {
			return into, err
		}
		if idx >= tagCount {
			return into, fmt.Errorf("%w: sample %d tag index %d of %d", ErrCorrupt, i, idx, tagCount)
		}
		ts.Tag = tags[idx]
		if len(p) < 6*8 {
			return into, fmt.Errorf("%w: sample %d fields", ErrTruncated, i)
		}
		ts.TimeS = math.Float64frombits(binary.LittleEndian.Uint64(p[0:]))
		ts.X = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		ts.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
		ts.Z = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
		ts.Phase = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
		ts.RSSI = math.Float64frombits(binary.LittleEndian.Uint64(p[40:]))
		p = p[48:]
		var seg, ch uint64
		seg, p, err = uvarint(p, "segment")
		if err != nil {
			return into, err
		}
		ch, p, err = uvarint(p, "channel")
		if err != nil {
			return into, err
		}
		ts.Segment = unzigzag(seg)
		ts.Channel = unzigzag(ch)
		if err := checkSample(i, ts); err != nil {
			return into, err
		}
		into = append(into, ts)
	}
	if len(p) != 0 {
		return into, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return into, nil
}

// checkSample enforces the ingest guarantees JSON gives for free: all floats
// finite, timestamps within the dataset ingest range.
func checkSample(i uint64, ts dataset.TaggedSample) error {
	for _, f := range [...]float64{ts.TimeS, ts.X, ts.Y, ts.Z, ts.Phase, ts.RSSI} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: sample %d has a non-finite field", ErrSample, i)
		}
	}
	if math.Abs(ts.TimeS) > dataset.MaxIngestTimeS {
		return fmt.Errorf("%w: sample %d time %v out of range", ErrSample, i, ts.TimeS)
	}
	return nil
}

// uvarint decodes one varint from p, returning the value and the rest.
func uvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n == 0 {
		return 0, p, fmt.Errorf("%w: %s varint", ErrTruncated, what)
	}
	if n < 0 {
		return 0, p, fmt.Errorf("%w: %s varint overflows", ErrCorrupt, what)
	}
	return v, p[n:], nil
}

// zigzag maps signed ints onto unsigned varint-friendly values.
func zigzag(v int) uint64 { return uint64((int64(v) << 1) ^ (int64(v) >> 63)) }

func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

// DecodeIngest reads a whole stream of frames, mirroring
// dataset.DecodeIngest for the binary format: every returned sample has a
// non-empty tag, finite fields, and an in-range timestamp, and the total is
// bounded by dataset.MaxIngestSamples.
func DecodeIngest(r io.Reader) ([]dataset.TaggedSample, error) {
	out, _, err := DecodeIngestExt(r)
	return out, err
}

// DecodeIngestExt is DecodeIngest surfacing the trace extension: ext is the
// first extension seen in the stream (a router-traced request carries the
// same extension on every frame of the batch), or nil for plain streams. It
// reads one frame at a time into one reused buffer and decodes it with
// DecodeFrameExt. A stream ending inside a frame fails with ErrTruncated.
func DecodeIngestExt(r io.Reader) ([]dataset.TaggedSample, *Ext, error) {
	var out []dataset.TaggedSample
	var first *Ext
	var frame []byte
	for {
		var err error
		frame, err = readFrame(r, frame)
		if err == io.EOF {
			return out, first, nil
		}
		if err != nil {
			return nil, nil, err
		}
		var ext *Ext
		if out, ext, _, err = DecodeFrameExt(frame, out); err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = ext
		}
		if len(out) > dataset.MaxIngestSamples {
			return nil, nil, fmt.Errorf("%w: over %d samples", dataset.ErrIngestTooLarge, dataset.MaxIngestSamples)
		}
	}
}

// readStep is the first payload read of a frame. Each later read grows the
// frame to at most four times the bytes read so far, so a header's claimed
// length caps the read but never sizes an allocation: the buffer holds at
// most readStep plus four times the bytes that actually arrived.
const readStep = 32 << 10

// readFrame reads the next whole frame from r into buf, reusing its
// capacity. A stream that ends cleanly before the frame starts returns
// io.EOF; one that ends inside the header fails as parseHeader reports it,
// and one that ends inside the payload with ErrTruncated.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header, a byte at a time up to the last byte of its length varint,
	// read into buf itself: a local array handed to r would escape to the
	// heap on every call. It has room for one byte past the longest varint:
	// binary.Uvarint, and so DecodeFrame, calls a varint overlong only once
	// it sees that byte.
	const maxHead = 4 + binary.MaxVarintLen64 + 1
	buf = slices.Grow(buf[:0], maxHead)[:maxHead]
	n := 0
	for n < maxHead && (n < 5 || buf[n-1]&0x80 != 0) {
		_, err := io.ReadFull(r, buf[n:n+1])
		if err == io.EOF && n == 0 {
			return buf[:0], io.EOF
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf[:0], err
		}
		n++
	}
	_, size, hn, err := parseHeader(buf[:n])
	if err != nil {
		return buf[:0], err
	}
	want := hn + size
	buf = buf[:hn]
	for len(buf) < want {
		step := min(want-len(buf), max(readStep, 3*len(buf)))
		if cap(buf)-len(buf) < step {
			buf = append(make([]byte, 0, len(buf)+step), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return buf, fmt.Errorf("%w: payload %d of %d bytes", ErrTruncated, len(buf)-hn, size)
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// AppendFrames appends samples to dst as frames of at most DefaultBatch
// samples each. A non-nil ext rides on every frame, so a split batch stays
// one traced unit; a nil ext emits plain frames. No samples append nothing.
func AppendFrames(dst []byte, samples []dataset.TaggedSample, ext *Ext) ([]byte, error) {
	for len(samples) > 0 {
		n := min(len(samples), DefaultBatch)
		var err error
		if dst, err = AppendFrameExt(dst, samples[:n], ext); err != nil {
			return dst, err
		}
		samples = samples[n:]
	}
	return dst, nil
}

// DefaultBatch is the samples-per-frame split applied by AppendFrames.
const DefaultBatch = 4096

// Codec is the wire implementation of dataset.Codec.
type Codec struct{}

// Name identifies the codec in flags and logs.
func (Codec) Name() string { return "wire" }

// ContentType is the HTTP content type the codec serves.
func (Codec) ContentType() string { return ContentType }

// Encode frames the samples with AppendFrames' DefaultBatch split.
func (Codec) Encode(w io.Writer, samples []dataset.TaggedSample) error {
	b, err := AppendFrames(nil, samples, nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

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
// allocation is bounded by the actual payload size, never by an attacker
// supplied count. Binary frames, unlike JSON, can encode NaN/Inf, so the
// decoder additionally rejects non-finite floats to keep the DecodeIngest
// guarantee of internal/dataset intact.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
// frames (Writer does this automatically).
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
	if len(b) < 4 {
		return into, nil, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if b[0] != magic0 || b[1] != magic1 {
		return into, nil, 0, fmt.Errorf("%w: % x", ErrBadMagic, b[:2])
	}
	if b[2] != Version {
		return into, nil, 0, fmt.Errorf("%w: version %d (want %d)", ErrVersion, b[2], Version)
	}
	flags := b[3]
	if flags&^flagMask != 0 {
		return into, nil, 0, fmt.Errorf("%w: undefined flag bits %#x", ErrCorrupt, flags&^flagMask)
	}
	size, n := binary.Uvarint(b[4:])
	if n == 0 {
		return into, nil, 0, fmt.Errorf("%w: payload length varint", ErrTruncated)
	}
	if n < 0 || size > MaxPayloadBytes {
		return into, nil, 0, fmt.Errorf("%w: payload length %d (max %d)", ErrTooLarge, size, MaxPayloadBytes)
	}
	head := 4 + n
	if uint64(len(b)-head) < size {
		return into, nil, 0, fmt.Errorf("%w: payload %d of %d bytes", ErrTruncated, len(b)-head, size)
	}
	payload := b[head : head+int(size)]
	var ext *Ext
	if flags&FlagTrace != 0 {
		var err error
		if ext, payload, err = decodeExt(payload); err != nil {
			return into, nil, 0, err
		}
	}
	out, err := decodePayload(payload, into)
	if err != nil {
		return into, nil, 0, err
	}
	return out, ext, head + int(size), nil
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
		// Grow geometrically so repeated ReadBatch appends stay amortised
		// O(1) per sample; the fresh capacity is still bounded by the actual
		// bytes decoded so far plus this frame's validated count.
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

// Writer frames batches onto an io.Writer, splitting any batch larger than
// batchSize across multiple frames. The zero batchSize means DefaultBatch.
// Writer reuses one scratch buffer across WriteBatch calls; it is not safe
// for concurrent use.
type Writer struct {
	w       io.Writer
	batch   int
	scratch []byte
}

// DefaultBatch is the samples-per-frame split applied by Writer and by
// Write when the caller does not choose one.
const DefaultBatch = 4096

// NewWriter returns a Writer emitting frames of at most batch samples
// (DefaultBatch when batch <= 0).
func NewWriter(w io.Writer, batch int) *Writer {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Writer{w: w, batch: batch}
}

// WriteBatch encodes samples as one or more frames and writes them out.
func (wr *Writer) WriteBatch(samples []dataset.TaggedSample) error {
	return wr.WriteBatchExt(samples, nil)
}

// WriteBatchExt is WriteBatch with an optional trace extension: a non-nil ext
// is carried on every emitted frame (a split batch stays one traced unit). A
// nil ext emits plain frames. Only decoders that know FlagTrace accept
// flagged frames.
func (wr *Writer) WriteBatchExt(samples []dataset.TaggedSample, ext *Ext) error {
	var flags byte
	if ext != nil {
		flags = FlagTrace
	}
	for len(samples) > 0 {
		n := min(len(samples), wr.batch)
		payload := wr.scratch[:0]
		if ext != nil {
			payload = appendExt(payload, ext)
		}
		payload, err := appendPayload(payload, samples[:n])
		if err != nil {
			return err
		}
		wr.scratch = payload
		var head [4 + binary.MaxVarintLen64]byte
		head[0], head[1], head[2], head[3] = magic0, magic1, Version, flags
		hn := 4 + binary.PutUvarint(head[4:], uint64(len(payload)))
		if _, err := wr.w.Write(head[:hn]); err != nil {
			return err
		}
		if _, err := wr.w.Write(payload); err != nil {
			return err
		}
		samples = samples[n:]
	}
	return nil
}

// Reader decodes a stream of concatenated frames.
type Reader struct {
	r       *bufio.Reader
	payload []byte
	ext     *Ext // trace extension of the last frame read, nil when plain
}

// NewReader wraps r for frame-at-a-time reading.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// TraceExt returns the trace extension of the most recently read frame, or
// nil when that frame was plain (or nothing has been read yet).
func (rd *Reader) TraceExt() *Ext { return rd.ext }

// ReadBatch reads the next frame and appends its samples to into, returning
// the extended slice. A clean end of stream returns io.EOF; a stream ending
// inside a frame returns ErrTruncated. A flagged frame's trace extension is
// retained until the next read (TraceExt).
func (rd *Reader) ReadBatch(into []dataset.TaggedSample) ([]dataset.TaggedSample, error) {
	rd.ext = nil
	var head [4]byte
	if _, err := io.ReadFull(rd.r, head[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return into, io.EOF
		}
		return into, err
	}
	if _, err := io.ReadFull(rd.r, head[1:]); err != nil {
		return into, fmt.Errorf("%w: header", ErrTruncated)
	}
	if head[0] != magic0 || head[1] != magic1 {
		return into, fmt.Errorf("%w: % x", ErrBadMagic, head[:2])
	}
	if head[2] != Version {
		return into, fmt.Errorf("%w: version %d (want %d)", ErrVersion, head[2], Version)
	}
	flags := head[3]
	if flags&^flagMask != 0 {
		return into, fmt.Errorf("%w: undefined flag bits %#x", ErrCorrupt, flags&^flagMask)
	}
	size, err := binary.ReadUvarint(rd.r)
	if err != nil {
		return into, fmt.Errorf("%w: payload length varint", ErrTruncated)
	}
	if size > MaxPayloadBytes {
		return into, fmt.Errorf("%w: payload length %d (max %d)", ErrTooLarge, size, MaxPayloadBytes)
	}
	if uint64(cap(rd.payload)) < size {
		rd.payload = make([]byte, size)
	}
	buf := rd.payload[:size]
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return into, fmt.Errorf("%w: payload %d bytes", ErrTruncated, size)
	}
	if flags&FlagTrace != 0 {
		if rd.ext, buf, err = decodeExt(buf); err != nil {
			return into, err
		}
	}
	return decodePayload(buf, into)
}

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
// same extension on every frame of the batch), or nil for plain streams.
func DecodeIngestExt(r io.Reader) ([]dataset.TaggedSample, *Ext, error) {
	rd := NewReader(r)
	var out []dataset.TaggedSample
	var ext *Ext
	for {
		next, err := rd.ReadBatch(out)
		if errors.Is(err, io.EOF) {
			return out, ext, nil
		}
		if err != nil {
			return nil, nil, err
		}
		if ext == nil {
			ext = rd.TraceExt()
		}
		if len(next) > dataset.MaxIngestSamples {
			return nil, nil, fmt.Errorf("%w: over %d samples", dataset.ErrIngestTooLarge, dataset.MaxIngestSamples)
		}
		out = next
	}
}

// Codec is the wire implementation of dataset.Codec.
type Codec struct{}

// Name identifies the codec in flags and logs.
func (Codec) Name() string { return "wire" }

// ContentType is the HTTP content type the codec serves.
func (Codec) ContentType() string { return ContentType }

// Decode parses a stream of frames.
func (Codec) Decode(r io.Reader) ([]dataset.TaggedSample, error) { return DecodeIngest(r) }

// Encode frames the samples with the default batch split.
func (Codec) Encode(w io.Writer, samples []dataset.TaggedSample) error {
	return NewWriter(w, 0).WriteBatch(samples)
}

package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Codec is one ingest encoding of tagged sample batches, as the load
// generator and lionsim write them. The two implementations are NDJSON (this
// package — the compatibility format) and the binary frame format
// (internal/wire — the hot-path format). liond and lionroute decode a
// request by its Content-Type with the matching DecodeIngest.
//
// Encode output must round-trip through that DecodeIngest bit-exactly —
// both codecs preserve the float64 payload (NDJSON via Go's
// shortest-round-trip float formatting, wire via raw IEEE 754 bits).
type Codec interface {
	// Name identifies the codec in flags and logs ("ndjson", "wire").
	Name() string
	// ContentType is the exact HTTP content type the codec serves.
	ContentType() string
	// Encode writes samples in this codec's format.
	Encode(w io.Writer, samples []TaggedSample) error
}

// NDJSONContentType is the content type of newline-delimited JSON ingest
// bodies. Requests with no content type (or any other non-wire type) are
// treated as NDJSON for compatibility with curl-style clients.
const NDJSONContentType = "application/x-ndjson"

// NDJSON is the JSON-lines Codec: one sample object or {"samples": [...]}
// envelope per line, exactly what DecodeIngest accepts.
type NDJSON struct{}

// Name identifies the codec in flags and logs.
func (NDJSON) Name() string { return "ndjson" }

// ContentType is the HTTP content type the codec serves.
func (NDJSON) ContentType() string { return NDJSONContentType }

// Encode writes samples as one {"samples": [...]} envelope line, the densest
// of the shapes DecodeIngest accepts.
func (NDJSON) Encode(w io.Writer, samples []TaggedSample) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(struct {
		Samples []TaggedSample `json:"samples"`
	}{samples}); err != nil {
		return fmt.Errorf("dataset: encode ingest envelope: %w", err)
	}
	return bw.Flush()
}

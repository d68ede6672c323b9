package node

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/wire"
)

// TestIngestWireCodec pushes the same trace once as NDJSON and once as
// binary wire frames into two identical daemons and asserts both engines
// end up in the same state — the codec must be invisible to the pipeline.
func TestIngestWireCodec(t *testing.T) {
	trace := smokeTrace(t)
	tagged := make([]dataset.TaggedSample, len(trace))
	for i, sm := range trace {
		tagged[i] = dataset.Tagged("T1", sm)
	}

	type node struct {
		base string
		eng  *stream.Engine
		stop func()
	}
	start := func() node {
		cfg, err := parseFlags([]string{"-intervals", "0.1", "-every", "32", "-workers", "1"})
		if err != nil {
			t.Fatal(err)
		}
		eng, mon, ctrl, err := buildPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		cfg.drain = 5 * time.Second
		go func() { done <- serve(ctx, ln, eng, mon, ctrl, cfg) }()
		return node{base: "http://" + ln.Addr().String(), eng: eng, stop: func() {
			cancel()
			<-done
		}}
	}
	nd, wr := start(), start()
	defer nd.stop()
	defer wr.stop()

	var ndBody bytes.Buffer
	if err := (dataset.NDJSON{}).Encode(&ndBody, tagged); err != nil {
		t.Fatal(err)
	}
	var wireBody bytes.Buffer
	if err := (wire.Codec{}).Encode(&wireBody, tagged); err != nil {
		t.Fatal(err)
	}
	if wireBody.Len() >= ndBody.Len() {
		t.Errorf("wire body %d B not smaller than NDJSON %d B", wireBody.Len(), ndBody.Len())
	}

	post := func(base, contentType string, body *bytes.Buffer) (accepted int) {
		t.Helper()
		resp, err := http.Post(base+"/v1/samples", contentType, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res struct{ Accepted, Dropped int }
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || res.Dropped != 0 {
			t.Fatalf("ingest %s: status %d, %+v", contentType, resp.StatusCode, res)
		}
		return res.Accepted
	}
	if got := post(nd.base, dataset.NDJSONContentType, &ndBody); got != len(trace) {
		t.Fatalf("ndjson accepted %d, want %d", got, len(trace))
	}
	if got := post(wr.base, wire.ContentType, &wireBody); got != len(trace) {
		t.Fatalf("wire accepted %d, want %d", got, len(trace))
	}

	for _, n := range []node{nd, wr} {
		if err := n.eng.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ea, aok := nd.eng.Latest("T1")
	eb, bok := wr.eng.Latest("T1")
	if !aok || !bok {
		t.Fatalf("estimates missing: ndjson %v wire %v", aok, bok)
	}
	if ea.Window != eb.Window || ea.From != eb.From || ea.To != eb.To {
		t.Fatalf("window state diverges: %+v vs %+v", ea, eb)
	}
	if ea.Solution == nil || eb.Solution == nil || ea.Solution.Position != eb.Solution.Position {
		t.Fatalf("positions diverge: %+v vs %+v", ea.Solution, eb.Solution)
	}
}

// TestDecodeIngestContentType pins which decoder a POST /v1/samples
// Content-Type reaches: the wire type, with parameters or in any letter
// case, decodes frames; every other type, or none, decodes NDJSON.
func TestDecodeIngestContentType(t *testing.T) {
	in := []dataset.TaggedSample{{Tag: "T1", TimeS: 0.25, Phase: 1.5}, {Tag: "T2", TimeS: 0.5, X: -0.1}}
	bodies := map[string]*bytes.Buffer{"ndjson": {}, "wire": {}}
	if err := (dataset.NDJSON{}).Encode(bodies["ndjson"], in); err != nil {
		t.Fatal(err)
	}
	if err := (wire.Codec{}).Encode(bodies["wire"], in); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		contentType string
		want        string
	}{
		{"", "ndjson"},
		{"application/x-ndjson", "ndjson"},
		{"application/x-lion-wire", "wire"},
		{"APPLICATION/X-LION-WIRE", "wire"},
		{"application/x-lion-wire; charset=utf-8", "wire"},
		{"application/x-www-form-urlencoded", "ndjson"}, // curl --data-binary default
		{"application/json", "ndjson"},
		{"complete nonsense", "ndjson"},
	}
	for _, tc := range cases {
		for name, body := range bodies {
			req := httptest.NewRequest("POST", "/v1/samples", bytes.NewReader(body.Bytes()))
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			got, _, err := DecodeIngest(httptest.NewRecorder(), req)
			if name == tc.want && (err != nil || !reflect.DeepEqual(got, in)) {
				t.Errorf("%q: %s body decoded to %+v, err = %v", tc.contentType, name, got, err)
			}
			if name != tc.want && err == nil {
				t.Errorf("%q: %s body accepted by the %s decoder", tc.contentType, name, tc.want)
			}
		}
	}
}

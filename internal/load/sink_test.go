package load

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/node"
	"github.com/rfid-lion/lion/internal/wire"
)

func testBatch(n int) []dataset.TaggedSample {
	out := make([]dataset.TaggedSample, n)
	for i := range out {
		out[i] = dataset.TaggedSample{Tag: fmt.Sprintf("T-%d", i), TimeS: float64(i), Phase: 1.5}
	}
	return out
}

func TestHTTPSinkCodecs(t *testing.T) {
	var gotCT string
	var gotN int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCT = r.Header.Get("Content-Type")
		samples, _, err := node.DecodeIngest(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		gotN = len(samples)
		fmt.Fprintf(w, `{"accepted":%d,"dropped":1}`, len(samples)-1)
	}))
	defer srv.Close()

	for _, codec := range []dataset.Codec{dataset.NDJSON{}, wire.Codec{}} {
		s := NewHTTPSink(srv.Client(), srv.URL, codec)
		accepted, dropped, err := s.Send(testBatch(8))
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if gotCT != codec.ContentType() || gotN != 8 {
			t.Fatalf("%s: server saw ct=%q n=%d", codec.Name(), gotCT, gotN)
		}
		if accepted != 7 || dropped != 1 {
			t.Fatalf("%s: accepted=%d dropped=%d", codec.Name(), accepted, dropped)
		}
	}
}

func TestHTTPSinkRouterReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"accepted":5,"rejected":3}`)
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.Client(), srv.URL, dataset.NDJSON{})
	accepted, dropped, err := s.Send(testBatch(8))
	if err != nil || accepted != 5 || dropped != 3 {
		t.Fatalf("router reply mishandled: accepted=%d dropped=%d err=%v", accepted, dropped, err)
	}
}

func TestHTTPSinkErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.Client(), srv.URL, dataset.NDJSON{})
	if _, _, err := s.Send(testBatch(2)); err == nil {
		t.Fatal("503 reply reported as success")
	}
	srv.Close()
	if _, _, err := s.Send(testBatch(2)); err == nil {
		t.Fatal("dead server reported as success")
	}
}

package load

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func TestScraperFlatDoc(t *testing.T) {
	var call atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/slo":
			// First scrape reports the worse window.
			p99 := 0.5
			if call.Add(1) > 1 {
				p99 = 0.2
			}
			fmt.Fprintf(w, `{"staleness_seconds":{"p50":0.01,"p95":0.05,"p99":%g,"count":100},
				"alert_latency_seconds":2.5}`, p99)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	s := NewScraper(nil, srv.URL)
	s.Scrape()
	s.Scrape()
	sum := s.Summary()
	if sum.Scrapes != 2 || sum.Errors != 0 {
		t.Fatalf("scrapes %d errors %d", sum.Scrapes, sum.Errors)
	}
	d := sum.Dims["staleness_seconds"]
	if d == nil {
		t.Fatal("staleness dimension missing")
	}
	if d.WorstP99 != 0.5 {
		t.Fatalf("worst p99 %v, want the first scrape's 0.5", d.WorstP99)
	}
	if d.Last.P99 != 0.2 || d.Last.Count != 100 {
		t.Fatalf("last quantiles %+v", d.Last)
	}
	if !sum.AlertSeen || sum.AlertLatency != 2.5 {
		t.Fatalf("alert latency %v seen=%v", sum.AlertLatency, sum.AlertSeen)
	}
}

func TestScraperClusterDoc(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/slo":
			fmt.Fprint(w, `{"shards":{"a":{"staleness_seconds":{"p99":9}}},
				"cluster":{"ingest_request_seconds":{"p50":0.001,"p95":0.002,"p99":0.003,"count":42}}}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	s := NewScraper(nil, srv.URL)
	s.Scrape()
	sum := s.Summary()
	if d := sum.Dims["ingest_request_seconds"]; d == nil || d.WorstP99 != 0.003 {
		t.Fatalf("cluster rollup not used: %+v", sum.Dims)
	}
	// The raw per-shard section must not leak in as dimensions.
	if _, ok := sum.Dims["shards"]; ok {
		t.Fatal("shards section parsed as a dimension")
	}
	if _, ok := sum.Dims["staleness_seconds"]; ok {
		t.Fatal("per-shard dimension leaked past the cluster rollup")
	}
}

func TestScraperCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	s := NewScraper(nil, srv.URL)
	s.Scrape()
	if sum := s.Summary(); sum.Errors != 1 || sum.Scrapes != 1 {
		t.Fatalf("error scrape not counted: %+v", sum)
	}
}

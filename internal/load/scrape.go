package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
)

// DimSummary is what the scraper retains about one SLO dimension over a run:
// the worst p99 any scrape reported (SLOs are judged against the worst
// window, not the last), and the final scrape's full quantile set.
type DimSummary struct {
	WorstP99 float64
	Last     obs.Quantiles
}

// ScrapeSummary is the server-side half of a run's evidence.
type ScrapeSummary struct {
	// Dims maps /v1/slo dimension keys ("staleness_seconds", ...) to their
	// over-the-run summaries.
	Dims map[string]*DimSummary
	// AlertLatency is the worst alert_latency_seconds reported; AlertSeen
	// records whether any scrape reported one at all.
	AlertLatency float64
	AlertSeen    bool
	// Scrapes and Errors count poll attempts and failures.
	Scrapes int
	Errors  int
}

// Scraper polls a target's /v1/slo during a load run so client-observed
// latency can be correlated with what the server believes about itself. It
// understands both document shapes: liond's flat map and lionroute's
// {"shards":…,"cluster":…} rollup (the cluster section is used).
type Scraper struct {
	client *http.Client
	base   string

	mu  sync.Mutex
	sum ScrapeSummary
}

// NewScraper builds a scraper for the target base URL. A nil client uses
// http.DefaultClient.
func NewScraper(client *http.Client, base string) *Scraper {
	if client == nil {
		client = http.DefaultClient
	}
	return &Scraper{
		client: client,
		base:   base,
		sum:    ScrapeSummary{Dims: map[string]*DimSummary{}},
	}
}

// Run polls every interval until ctx is cancelled, then takes one final
// scrape so the post-drain state is always captured.
func (s *Scraper) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			s.Scrape()
			return
		case <-t.C:
			s.Scrape()
		}
	}
}

// Scrape performs one poll of /v1/slo.
func (s *Scraper) Scrape() {
	doc, err := s.fetchSLO()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum.Scrapes++
	if err != nil {
		s.sum.Errors++
	}
	for key, q := range doc.Dims {
		d := s.sum.Dims[key]
		if d == nil {
			d = &DimSummary{}
			s.sum.Dims[key] = d
		}
		if q.P99 > d.WorstP99 {
			d.WorstP99 = q.P99
		}
		d.Last = q
	}
	if doc.AlertSeen {
		s.sum.AlertSeen = true
		if doc.AlertLatency > s.sum.AlertLatency {
			s.sum.AlertLatency = doc.AlertLatency
		}
	}
}

// Summary returns a copy of everything scraped so far.
func (s *Scraper) Summary() ScrapeSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ScrapeSummary{
		Dims:         make(map[string]*DimSummary, len(s.sum.Dims)),
		AlertLatency: s.sum.AlertLatency,
		AlertSeen:    s.sum.AlertSeen,
		Scrapes:      s.sum.Scrapes,
		Errors:       s.sum.Errors,
	}
	for k, d := range s.sum.Dims {
		c := *d
		out.Dims[k] = &c
	}
	return out
}

// fetchSLO fetches and decodes /v1/slo. A router response carries the
// dimensions under "cluster"; a liond response is the flat document itself.
func (s *Scraper) fetchSLO() (obs.SLO, error) {
	resp, err := s.client.Get(s.base + "/v1/slo")
	if err != nil {
		return obs.SLO{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return obs.SLO{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return obs.SLO{}, fmt.Errorf("load: /v1/slo status %d", resp.StatusCode)
	}
	var router struct {
		Cluster json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal(body, &router); err != nil {
		return obs.SLO{}, fmt.Errorf("load: /v1/slo: %w", err)
	}
	if router.Cluster != nil {
		body = router.Cluster
	}
	doc, err := obs.ParseSLO(body)
	if err != nil {
		return doc, fmt.Errorf("load: /v1/slo: %w", err)
	}
	return doc, nil
}

package cluster

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"time"
)

// ShardConfig names one liond shard and where to reach it.
type ShardConfig struct {
	// ID is the stable shard identity the ring hashes on. Renaming a shard
	// moves every tag it owns; changing only its URL does not.
	ID string `json:"id"`
	// URL is the shard's HTTP base, e.g. "http://10.0.0.7:8077".
	URL string `json:"url"`
}

// Config is the static cluster membership, loaded from a JSON file at
// router startup. Membership is deliberately not dynamic: the ring must be
// identical across router restarts or tags would re-shard and lose their
// window state (see the package comment).
//
// Shards is the only field a deployment sets. The router's tuning is fixed:
// DefaultReplicas ring points per shard, forwardBatchSamples per POST,
// probeTimeout per health probe, and the defaults of the unexported fields
// below, which exist so in-package tests can shrink queues, timeouts and
// retry counts.
type Config struct {
	// Shards is the ring membership. Required, order-insensitive.
	Shards []ShardConfig `json:"shards"`

	// queueSamples bounds each shard's forward queue in samples. A batch
	// that would push a queue past this is rejected whole (counted in
	// lion_cluster_rejected_total{reason="queue_full"}). 0 = 65536.
	queueSamples int
	// healthInterval is the /readyz probe period. 0 = 500ms; negative
	// disables health checking (shards stay in their initial healthy state,
	// so tests can drive state transitions directly).
	healthInterval time.Duration
	// failThreshold is how many consecutive failed probes eject a shard.
	// 0 = 3.
	failThreshold int
	// forwardTimeout bounds one forward POST. 0 = 10s.
	forwardTimeout time.Duration
	// forwardAttempts is how many times a batch is POSTed before it is
	// dropped (counted in lion_cluster_forward_errors_total). 0 = 3.
	forwardAttempts int
}

const (
	// forwardBatchSamples caps how many queued samples one forward POST
	// coalesces: one wire frame.
	forwardBatchSamples = 4096
	// probeTimeout bounds one /readyz probe.
	probeTimeout = 2 * time.Second
)

// withDefaults returns c with every zero tuning field set to its default.
func (c Config) withDefaults() Config {
	c.queueSamples = cmp.Or(c.queueSamples, 65536)
	c.healthInterval = cmp.Or(c.healthInterval, 500*time.Millisecond)
	c.failThreshold = cmp.Or(c.failThreshold, 3)
	c.forwardTimeout = cmp.Or(c.forwardTimeout, 10*time.Second)
	c.forwardAttempts = cmp.Or(c.forwardAttempts, 3)
	return c
}

// Validate checks the membership: at least one shard, unique non-empty ids,
// absolute http/https URLs.
func (c Config) Validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("cluster: config has no shards")
	}
	seen := make(map[string]bool, len(c.Shards))
	for i, s := range c.Shards {
		if s.ID == "" {
			return fmt.Errorf("cluster: shard %d has no id", i)
		}
		if seen[s.ID] {
			return fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		seen[s.ID] = true
		u, err := url.Parse(s.URL)
		if err != nil {
			return fmt.Errorf("cluster: shard %q url: %w", s.ID, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("cluster: shard %q url %q must be absolute http(s)", s.ID, s.URL)
		}
	}
	return nil
}

// ParseConfig decodes and validates a JSON cluster config. Unknown fields
// are rejected, so a typo, or a tuning field the router does not read,
// fails loudly at startup.
func ParseConfig(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("cluster: parse config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// LoadConfig reads the cluster config from a file.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := ParseConfig(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

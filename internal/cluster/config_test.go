package cluster

import (
	"strings"
	"testing"
	"time"
)

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`{
		"shards": [
			{"id": "s1", "url": "http://127.0.0.1:9001"},
			{"id": "s2", "url": "http://127.0.0.1:9002/"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Shards) != 2 || cfg.Shards[0].ID != "s1" || cfg.Shards[1].URL != "http://127.0.0.1:9002/" {
		t.Fatalf("shards = %+v", cfg.Shards)
	}
}

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`{"shards":[{"id":"a","url":"http://h:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.withDefaults()
	if c.queueSamples != 65536 {
		t.Errorf("queue default: %d", c.queueSamples)
	}
	if c.healthInterval != 500*time.Millisecond || c.failThreshold != 3 {
		t.Errorf("health defaults: %v/%d", c.healthInterval, c.failThreshold)
	}
	if c.forwardAttempts != 3 || c.forwardTimeout != 10*time.Second {
		t.Errorf("forward defaults: %d/%v", c.forwardAttempts, c.forwardTimeout)
	}
}

func TestParseConfigRejects(t *testing.T) {
	const shards = `"shards":[{"id":"a","url":"http://h:1"}]`
	cases := map[string]string{
		"no shards":     `{"shards": []}`,
		"empty id":      `{"shards":[{"id":"","url":"http://h:1"}]}`,
		"dup id":        `{"shards":[{"id":"a","url":"http://h:1"},{"id":"a","url":"http://h:2"}]}`,
		"relative url":  `{"shards":[{"id":"a","url":"localhost:9001"}]}`,
		"bad scheme":    `{"shards":[{"id":"a","url":"ftp://h:1"}]}`,
		"unknown field": `{` + shards + `, "qeue_samples": 5}`,
		// The router's tuning is not part of the file format: each former
		// tuning field is an unknown field like any typo.
		"replicas":         `{` + shards + `, "replicas": 64}`,
		"queue_samples":    `{` + shards + `, "queue_samples": 1000}`,
		"batch_samples":    `{` + shards + `, "batch_samples": 1000}`,
		"health_interval":  `{` + shards + `, "health_interval": "250ms"}`,
		"health_timeout":   `{` + shards + `, "health_timeout": "1s"}`,
		"fail_threshold":   `{` + shards + `, "fail_threshold": 5}`,
		"forward_timeout":  `{` + shards + `, "forward_timeout": 1000000000}`,
		"forward_attempts": `{` + shards + `, "forward_attempts": 2}`,
	}
	for name, body := range cases {
		if _, err := ParseConfig(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

func TestHealthIntervalDisable(t *testing.T) {
	if iv := (Config{healthInterval: -1}).withDefaults().healthInterval; iv > 0 {
		t.Errorf("negative interval should disable health checks, got %v", iv)
	}
}

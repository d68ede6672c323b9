package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunGolden pins the example's output byte for byte: the seeded scan
// and the tracker are deterministic, so any change to the estimates shows
// up here.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/golden.txt:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

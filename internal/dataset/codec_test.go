package dataset

import (
	"bytes"
	"reflect"
	"testing"
)

func TestNDJSONCodecRoundTrip(t *testing.T) {
	in := []TaggedSample{
		{Tag: "T1", TimeS: 0.25, X: 1, Y: -2, Z: 0.5, Phase: 3.1, RSSI: -61.5, Channel: 3},
		{Tag: "T2", TimeS: 0.5, X: -0.1, Phase: -1.5, Segment: -2},
	}
	var buf bytes.Buffer
	var c Codec = NDJSON{}
	if err := c.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeIngest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n got  %+v\n want %+v", out, in)
	}
}

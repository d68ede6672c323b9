package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTraceSchemaGolden freezes the NDJSON wire schema of solve-trace
// events: the exact field names, types, and omit-empty behaviour that
// consumers of lionsim -trace output rely on.
// Changing this output is a breaking change to the trace schema guarantee in
// DESIGN.md §9 and must be made deliberately, updating both.
func TestTraceSchemaGolden(t *testing.T) {
	events := []Event{
		{TMicros: 1, Kind: KindSpanStart, Span: "solve"},
		{TMicros: 5, Kind: KindIRLSIter, Span: "solve", Iter: 2,
			Residual: 0.125, FloorHits: 3, Condition: 42.5},
		{TMicros: 9, Kind: KindCandidate, Span: "adaptive",
			ScanRange: 0.8, Interval: 0.2, WResidual: 0.0625},
		{TMicros: 11, Kind: KindCandidate, Span: "adaptive",
			ScanRange: 1, Interval: 0.25, Err: "rank deficient"},
		{TMicros: 13, Kind: KindNote, Span: "solve", Detail: "weights floored"},
		{TMicros: 20, Kind: KindSpanEnd, Span: "solve", DurMicros: 19},
	}
	golden := `{"t_us":1,"event":"span_start","span":"solve"}
{"t_us":5,"event":"irls_iter","span":"solve","iter":2,"residual_norm":0.125,"weight_floor_hits":3,"condition_estimate":42.5}
{"t_us":9,"event":"candidate","span":"adaptive","scan_range_m":0.8,"interval_m":0.2,"weighted_residual":0.0625}
{"t_us":11,"event":"candidate","span":"adaptive","scan_range_m":1,"interval_m":0.25,"error":"rank deficient"}
{"t_us":13,"event":"note","span":"solve","detail":"weights floored"}
{"t_us":20,"event":"span_end","span":"solve","duration_us":19}
`
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Errorf("trace NDJSON schema drifted.\ngot:\n%s\nwant:\n%s", buf.String(), golden)
	}

	// The reverse direction must hold too: the golden lines decode back into
	// identical events, so recorded traces replay losslessly.
	dec := json.NewDecoder(&buf)
	buf.WriteString(golden)
	for i := range events {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decode golden line %d: %v", i, err)
		}
		if e != events[i] {
			t.Errorf("line %d round-trip: got %+v, want %+v", i, e, events[i])
		}
	}
}

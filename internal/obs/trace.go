package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Tracer is a placeholder: stream.Solver, stream.SessionSolver and
// stream.SolveWindow still take a *Tracer, every caller passes nil, and every
// solver ignores it. The parameter and this type go together once the
// pipebench module no longer compiles against them.
type Tracer struct{}

// WriteNDJSON writes items as NDJSON, one JSON object per line (pipeline
// spans, lionsim -explain candidates).
func WriteNDJSON[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return err
		}
	}
	return bw.Flush()
}

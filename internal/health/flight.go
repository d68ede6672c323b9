package health

import (
	"sort"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/stats"
)

// TraceRecord is one recorded window solve: the identifying metadata plus
// the full solve trace. Records are what the flight recorder rings hold and
// what alert evidence snapshots copy.
type TraceRecord struct {
	Tag    string
	Seq    uint64
	Time   time.Duration
	Window int
	Err    string
	Events []obs.Event
}

// flightRecorder keeps the last depth solve traces per tag in fixed-size
// rings, bounded to maxTags tags (least-recently-written evicted). Total
// memory is therefore bounded by depth × maxTags trace buffers regardless
// of stream cardinality or uptime. Safe for concurrent use: alert
// transitions snapshot from it while solves append.
type flightRecorder struct {
	mu      sync.Mutex
	depth   int
	maxTags int
	tags    map[string]*flightRing
}

type flightRing struct {
	win     stats.Ring[TraceRecord]
	touched time.Duration // stream time of the newest record, for eviction
}

// The monitor's flight recorder keeps flightDepth traces for each of up to
// flightTags tags.
const (
	flightDepth = 8
	flightTags  = 64
)

// newFlightRecorder returns a recorder keeping depth traces for up to
// maxTags tags. Both must be positive.
func newFlightRecorder(depth, maxTags int) *flightRecorder {
	return &flightRecorder{depth: depth, maxTags: maxTags, tags: make(map[string]*flightRing)}
}

// Record appends one solve trace to the tag's ring, evicting the oldest
// record when full and the least-recently-written tag when the tag bound is
// reached.
func (f *flightRecorder) Record(rec TraceRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ring := f.tags[rec.Tag]
	if ring == nil {
		if len(f.tags) >= f.maxTags {
			evictStalest(f.tags, func(r *flightRing) time.Duration { return r.touched })
		}
		ring = &flightRing{win: stats.NewRing[TraceRecord](f.depth)}
		f.tags[rec.Tag] = ring
	}
	ring.win.Push(rec)
	ring.touched = rec.Time
}

// evictStalest deletes the entry of m touched longest ago. Ties — every tag
// touched at one stream time, as when one ingest frame solves several tags —
// go to the smallest tag id, so the victim never depends on map iteration
// order.
func evictStalest[V any](m map[string]V, touched func(V) time.Duration) {
	var victim string
	var oldest time.Duration
	first := true
	for tag, v := range m {
		if t := touched(v); first || t < oldest || (t == oldest && tag < victim) {
			victim, oldest, first = tag, t, false
		}
	}
	delete(m, victim)
}

// Tag returns the tag's retained traces, oldest first, or nil.
func (f *flightRecorder) Tag(tag string) []TraceRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ring := f.tags[tag]; ring != nil {
		return ring.win.AppendTo(nil)
	}
	return nil
}

// Tags returns the recorded tag ids, sorted.
func (f *flightRecorder) Tags() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.tags))
	for tag := range f.tags {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of retained traces across all tags.
func (f *flightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, ring := range f.tags {
		total += ring.win.Len()
	}
	return total
}

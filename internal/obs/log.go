package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Logger writes structured JSON log lines: one object per line with ts,
// level, msg, and the given key/value fields. The nil Logger discards
// everything, so optional logging threads through APIs without a check at
// each call.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time // test hook; nil means time.Now
}

// NewLogger returns a logger writing JSON lines to w.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w}
}

// Info logs at level info. kv are alternating key/value pairs; a trailing
// odd key gets the value "(MISSING)".
func (l *Logger) Info(msg string, kv ...any) { l.log("info", msg, kv) }

// Warn logs at level warn.
func (l *Logger) Warn(msg string, kv ...any) { l.log("warn", msg, kv) }

// Error logs at level error.
func (l *Logger) Error(msg string, kv ...any) { l.log("error", msg, kv) }

func (l *Logger) log(level, msg string, kv []any) {
	if l == nil {
		return
	}
	rec := make(map[string]any, len(kv)/2+3)
	now := time.Now
	if l.now != nil {
		now = l.now
	}
	rec["ts"] = now().UTC().Format(time.RFC3339Nano)
	rec["level"] = level
	rec["msg"] = msg
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		if i+1 < len(kv) {
			rec[key] = jsonSafe(kv[i+1])
		} else {
			rec[key] = "(MISSING)"
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		// A field resisted marshalling (e.g. a channel); degrade rather
		// than drop the record.
		line = []byte(fmt.Sprintf(`{"ts":%q,"level":%q,"msg":%q,"log_error":%q}`,
			rec["ts"], level, msg, err.Error()))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(line, '\n'))
}

// jsonSafe converts values that json.Marshal would reject or render
// unhelpfully (errors, durations) into strings.
func jsonSafe(v any) any {
	switch x := v.(type) {
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	case fmt.Stringer:
		return x.String()
	default:
		return v
	}
}

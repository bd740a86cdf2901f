package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Encode writes events as JSON Lines: one compact JSON object per event,
// newline-terminated, in slice order. encoding/json emits struct fields in
// declaration order, so the output is byte-deterministic for a given
// event sequence.
func Encode(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", i, err)
		}
	}
	return nil
}

// WriteJSONL exports the log (oldest first) as JSON Lines.
// Safe on a nil tracer (writes nothing).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return Encode(w, t.Events())
}

// Decode parses a JSON Lines trace produced by Encode. Blank lines are
// skipped; a malformed line fails with its line number. Unknown fields
// are ignored, so older readers tolerate newer traces.
func Decode(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

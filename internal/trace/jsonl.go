package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// AppendJSONL appends e as one JSON Lines record to dst and returns the
// extended slice. The bytes are exactly what encoding/json's Encoder
// writes for e under SetEscapeHTML(false): the fields in declaration
// order, node, peer and detail omitted when empty, strings escaped as
// encoding/json escapes them, and a closing newline. It is the one
// encoder of events: Encode, the shard engine's canonical trace and the
// mission server's live stream all write through it.
func AppendJSONL(dst []byte, e *Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, e.Seq, 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, int64(e.At), 10)
	dst = append(dst, `,"kind":`...)
	dst = strconv.AppendInt(dst, int64(e.Kind), 10)
	if e.Node != "" {
		dst = append(dst, `,"node":`...)
		dst = appendString(dst, e.Node)
	}
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendInt(dst, int64(e.ID), 10)
	dst = append(dst, `,"col":`...)
	dst = strconv.AppendInt(dst, int64(e.Col), 10)
	dst = append(dst, `,"row":`...)
	dst = strconv.AppendInt(dst, int64(e.Row), 10)
	dst = append(dst, `,"pcol":`...)
	dst = strconv.AppendInt(dst, int64(e.PeerCol), 10)
	dst = append(dst, `,"prow":`...)
	dst = strconv.AppendInt(dst, int64(e.PeerRow), 10)
	dst = append(dst, `,"level":`...)
	dst = strconv.AppendInt(dst, int64(e.Level), 10)
	dst = append(dst, `,"bytes":`...)
	dst = strconv.AppendInt(dst, e.Bytes, 10)
	if e.Peer != "" {
		dst = append(dst, `,"peer":`...)
		dst = appendString(dst, e.Peer)
	}
	if e.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendString(dst, e.Detail)
	}
	return append(dst, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string, escaped as
// encoding/json escapes it without HTML escaping: `"` and `\` and the
// control bytes \b, \f, \n, \r, \t get their short escapes, every other
// byte below 0x20 becomes \u00XX, each byte of invalid UTF-8 becomes
// the escaped replacement character U+FFFD, and U+2028 and U+2029 are
// escaped too. Everything else, <, > and & included, is copied as is.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	done := 0 // s[:done] is already in dst
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[done:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			done = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[done:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			dst = append(dst, s[done:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		done = i
	}
	dst = append(dst, s[done:]...)
	return append(dst, '"')
}

// Encode writes events as JSON Lines, one AppendJSONL record per event,
// in slice order, so the output is byte-deterministic for a given event
// sequence. It writes in blocks of about 64 KiB.
func Encode(w io.Writer, events []Event) error {
	const block = 64 << 10
	var buf []byte
	for i := range events {
		buf = AppendJSONL(buf, &events[i])
		if len(buf) >= block || i == len(events)-1 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("trace: write: %w", err)
			}
			buf = buf[:0]
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

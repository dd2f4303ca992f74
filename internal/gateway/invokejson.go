package gateway

import (
	"bytes"
	"math"
	"strconv"
)

// The invoke path's JSON without reflection. Both halves are fast paths
// with encoding/json as the fallback: each takes only the shapes it can
// render or read exactly as encoding/json would, and reports false for
// everything else, so the bytes on the wire and the accepted bodies are
// encoding/json's by construction (TestInvokeResponseMatchesEncoder,
// FuzzInvokeBody).

// appendInvokeResponse appends r as a json.Encoder with a two-space indent
// writes it, trailing newline included. It reports false, leaving the
// result to the encoder, when the two would differ: a NaN or infinite
// float, which the encoder refuses, or a string it would escape.
func appendInvokeResponse(b []byte, r *invokeResponse) ([]byte, bool) {
	if !plainJSONString(r.Application) || !plainJSONString(r.Platform) {
		return b, false
	}
	b = append(b, "{\n  \"application\": \""...)
	b = append(b, r.Application...)
	b = append(b, "\",\n  \"platform\": \""...)
	b = append(b, r.Platform...)
	b = append(b, '"')
	ok := true
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{"total_ms", r.TotalMS},
		{"stack_ms", r.StackMS},
		{"remote_io_ms", r.RemoteIOMS},
		{"compute_ms", r.ComputeMS},
		{"device_io_ms", r.DeviceIOMS},
		{"driver_ms", r.DriverMS},
		{"cold_start_ms", r.ColdMS},
		{"notify_ms", r.NotifyMS},
		{"energy_j", r.EnergyJ},
		{"queued_ms", r.QueuedMS},
	} {
		b = appendKey(b, f.key)
		if b, ok = appendJSONFloat(b, f.v); !ok {
			return b, false
		}
	}
	b = appendKey(b, "batch_requests")
	b = strconv.AppendInt(b, int64(r.BatchRequests), 10)
	b = appendKey(b, "batch_size")
	b = strconv.AppendInt(b, int64(r.BatchSize), 10)
	return append(b, "\n}\n"...), true
}

// appendKey starts the next member of an indented object.
func appendKey(b []byte, key string) []byte {
	b = append(b, ",\n  \""...)
	b = append(b, key...)
	return append(b, "\": "...)
}

// plainJSONString reports whether encoding/json writes s between its quotes
// byte for byte: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendJSONFloat appends v as encoding/json formats a float64: the
// shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 in
// magnitude, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). It reports false for NaN and ±Inf.
func appendJSONFloat(b []byte, v float64) ([]byte, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// scanInvokeRequest decodes the common invocation body into req: one JSON
// object whose keys are spelled exactly batch, cold or quantile, holding an
// integer, true or false, and a number, with JSON whitespace anywhere
// between tokens. A repeated key takes its last value, as in json.Unmarshal.
// It reports false for anything else: another key or another case of one,
// an escape in a key, null, a value of another type or out of range, a
// syntax error or trailing bytes. req is then partly written and the body
// is json.Unmarshal's to accept or refuse.
func scanInvokeRequest(body []byte, req *invokeRequest) bool {
	sc := bodyScanner{b: body}
	if !sc.consume('{') {
		return false
	}
	if sc.consume('}') {
		return sc.atEnd()
	}
	for {
		key, ok := sc.key()
		if !ok || !sc.consume(':') {
			return false
		}
		sc.skipSpace()
		switch string(key) {
		case "batch":
			lit, integer := sc.number()
			if !integer {
				return false
			}
			n, err := strconv.ParseInt(string(lit), 10, 0)
			if err != nil {
				return false
			}
			req.Batch = int(n)
		case "cold":
			if req.Cold, ok = sc.boolean(); !ok {
				return false
			}
		case "quantile":
			lit, _ := sc.number()
			if lit == nil {
				return false
			}
			q, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				return false
			}
			req.Quantile = q
		default:
			return false
		}
		if sc.consume('}') {
			return sc.atEnd()
		}
		if !sc.consume(',') {
			return false
		}
	}
}

// bodyScanner walks a request body for scanInvokeRequest.
type bodyScanner struct {
	b []byte
	i int
}

// skipSpace steps over JSON whitespace.
func (sc *bodyScanner) skipSpace() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// consume steps over whitespace and then c, reporting whether c was next.
func (sc *bodyScanner) consume(c byte) bool {
	sc.skipSpace()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// atEnd reports whether only whitespace is left.
func (sc *bodyScanner) atEnd() bool {
	sc.skipSpace()
	return sc.i == len(sc.b)
}

// key reads a quoted member name with no escapes or control bytes in it.
func (sc *bodyScanner) key() ([]byte, bool) {
	if !sc.consume('"') {
		return nil, false
	}
	start := sc.i
	for ; sc.i < len(sc.b); sc.i++ {
		switch c := sc.b[sc.i]; {
		case c == '"':
			sc.i++
			return sc.b[start : sc.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// boolean reads true or false.
func (sc *bodyScanner) boolean() (v, ok bool) {
	rest := sc.b[sc.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		sc.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		sc.i += 5
		return false, true
	}
	return false, false
}

// number reads a literal in JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, reporting whether it has
// neither fraction nor exponent. lit is nil if no number starts here.
func (sc *bodyScanner) number() (lit []byte, integer bool) {
	start := sc.i
	sc.accept('-')
	switch {
	case sc.accept('0'):
	case sc.digits() == 0:
		return nil, false
	}
	integer = true
	if sc.accept('.') {
		integer = false
		if sc.digits() == 0 {
			return nil, false
		}
	}
	if sc.accept('e') || sc.accept('E') {
		integer = false
		if !sc.accept('+') {
			sc.accept('-')
		}
		if sc.digits() == 0 {
			return nil, false
		}
	}
	return sc.b[start:sc.i], integer
}

// accept steps over c if it is next, with no whitespace skipped.
func (sc *bodyScanner) accept(c byte) bool {
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// digits steps over a run of decimal digits and returns its length.
func (sc *bodyScanner) digits() int {
	start := sc.i
	for sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9' {
		sc.i++
	}
	return sc.i - start
}

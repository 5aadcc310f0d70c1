package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The fragment-execution stream is newline-delimited JSON, one
// ExecuteFrame per line, and nearly every line is a batch frame of
// plain tuples, which encoding/json walks by reflection value by
// value. appendFrame and decodeFrame write and read the very bytes
// encoding/json does (either end may be an older build), by hand for
// the plain case: a non-empty batch whose strings are printable ASCII
// needing no escape, whose numbers print in fixed-point form, in the
// writer's own key order without whitespace. Anything else — done and
// error frames, escapes, non-ASCII, exponents, -0, NaN, unknown keys —
// goes through encoding/json whole. FuzzBatchFrame holds the two
// paths to the same bytes and the same values.

// appendFrame appends the frame's wire line, newline included, to dst.
func appendFrame(dst []byte, fr *ExecuteFrame) ([]byte, error) {
	if out, ok := appendBatchFrame(dst, fr); ok {
		return out, nil
	}
	line, err := json.Marshal(fr)
	if err != nil {
		return dst, err
	}
	return append(append(dst, line...), '\n'), nil
}

// appendBatchFrame is appendFrame's hand path; ok is false when the
// frame is not a plain batch frame. Every list element and object
// member is written with a trailing comma, which the closing bracket
// then replaces.
func appendBatchFrame(dst []byte, fr *ExecuteFrame) (out []byte, ok bool) {
	if len(fr.Batch) == 0 || fr.Done != nil || fr.Error != "" ||
		fr.BudgetExceeded || fr.BudgetReason != "" || fr.BudgetLimit != "" {
		return dst, false
	}
	out = append(dst, `{"batch":[`...)
	for _, t := range fr.Batch {
		if t == nil {
			out = append(out, "null,"...)
			continue
		}
		out = append(out, '[')
		for _, v := range t {
			// +0 is omitted; otherwise fixed-point means 1e-6 ≤ |n| < 1e21.
			abs := math.Abs(v.Num)
			if !plainString(v.Kind, true) || !plainString(v.Str, true) ||
				!(math.Float64bits(v.Num) == 0 || (abs >= 1e-6 && abs < 1e21)) {
				return dst, false
			}
			out = append(out, '{')
			if v.Kind != "" {
				out = append(append(append(out, `"k":"`...), v.Kind...), `",`...)
			}
			if v.Str != "" {
				out = append(append(append(out, `"s":"`...), v.Str...), `",`...)
			}
			if v.Num != 0 {
				out = append(strconv.AppendFloat(append(out, `"n":`...), v.Num, 'f', -1, 64), ',')
			}
			out = append(closeWith(out, '}'), ',')
		}
		out = append(closeWith(out, ']'), ',')
	}
	out = closeWith(out, ']')
	if fr.Seq != 0 {
		out = strconv.AppendInt(append(out, `,"seq":`...), int64(fr.Seq), 10)
	}
	return append(out, '}', '\n'), true
}

// closeWith ends a list or object: c replaces the last element's
// trailing comma, or follows the opening bracket of an empty one.
func closeWith(out []byte, c byte) []byte {
	if out[len(out)-1] == ',' {
		out[len(out)-1] = c
		return out
	}
	return append(out, c)
}

// plainString reports whether encoding/json writes s between quotes
// byte for byte: printable ASCII without '"' or '\\' — and, for a
// writer (html), without the '<', '>', '&' json.Marshal escapes.
func plainString[T string | []byte](s T, html bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || (html && (c == '<' || c == '>' || c == '&')) {
			return false
		}
	}
	return true
}

// decodeFrame parses one wire line (without its newline).
func decodeFrame(line []byte) (ExecuteFrame, error) {
	var fr ExecuteFrame
	if decodeBatchFrame(line, &fr) {
		return fr, nil
	}
	fr = ExecuteFrame{}
	err := json.Unmarshal(line, &fr)
	return fr, err
}

// decodeBatchFrame is decodeFrame's hand path: it accepts exactly the
// lines appendBatchFrame writes and reports false for any other, in
// which case fr may be partly filled.
func decodeBatchFrame(line []byte, fr *ExecuteFrame) bool {
	s := frameScanner{buf: line}
	width := 0 // of the previous tuple: a batch's tuples share one layout
	tuple := func() bool {
		if s.lit("null") {
			fr.Batch = append(fr.Batch, nil)
			return true
		}
		t := make(WireTuple, 0, width)
		ok := s.lit("[") && s.list(func() bool {
			v, ok := s.value()
			t = append(t, v)
			return ok
		})
		fr.Batch, width = append(fr.Batch, t), len(t)
		return ok
	}
	if !s.lit(`{"batch":[`) || !s.list(tuple) || len(fr.Batch) == 0 {
		return false
	}
	if s.lit(`,"seq":`) {
		n, ok := s.number()
		seq, err := strconv.Atoi(string(n))
		if !ok || err != nil || seq <= 0 {
			return false
		}
		fr.Seq = seq
	}
	return s.lit("}") && s.pos == len(line)
}

// frameScanner is a cursor over one wire line.
type frameScanner struct {
	buf []byte
	pos int
}

// lit consumes the literal when it comes next.
func (s *frameScanner) lit(l string) bool {
	if len(s.buf)-s.pos < len(l) || string(s.buf[s.pos:s.pos+len(l)]) != l {
		return false
	}
	s.pos += len(l)
	return true
}

// list consumes the elements and closing bracket of an array whose
// opening bracket is already consumed.
func (s *frameScanner) list(elem func() bool) bool {
	if s.lit("]") {
		return true
	}
	for elem() {
		if s.lit("]") {
			return true
		}
		if !s.lit(",") {
			return false
		}
	}
	return false
}

// str consumes a plain string up to and including its closing quote
// (the opening one is already consumed).
func (s *frameScanner) str() (string, bool) {
	end := bytes.IndexByte(s.buf[s.pos:], '"')
	if end < 0 || !plainString(s.buf[s.pos:s.pos+end], false) {
		return "", false
	}
	b := s.buf[s.pos : s.pos+end]
	s.pos += end + 1
	return string(b), true
}

// number consumes a JSON number without exponent,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?, leaving its value to the caller's
// strconv parse (which rejects what this does not: "1-2", "1.2.3").
func (s *frameScanner) number() ([]byte, bool) {
	start := s.pos
	for s.pos < len(s.buf) && (s.buf[s.pos] == '-' || s.buf[s.pos] == '.' || (s.buf[s.pos] >= '0' && s.buf[s.pos] <= '9')) {
		s.pos++
	}
	b := s.buf[start:s.pos]
	d := bytes.TrimPrefix(b, []byte("-"))
	ok := len(d) > 0 && d[0] != '.' && d[len(d)-1] != '.' && (len(d) == 1 || d[0] != '0' || d[1] == '.')
	return b, ok
}

// value consumes one WireValue object: {"k":…,"s":…,"n":…}, each
// member optional, in that order.
func (s *frameScanner) value() (v WireValue, ok bool) {
	if !s.lit("{") {
		return v, false
	}
	// key consumes the next member's key: bare when it is the object's
	// first member, after a comma otherwise.
	key := func(bare, comma string) bool {
		if s.buf[s.pos-1] == '{' {
			return s.lit(bare)
		}
		return s.lit(comma)
	}
	if s.lit(`"k":"`) {
		if v.Kind, ok = s.str(); !ok {
			return v, false
		}
	}
	if key(`"s":"`, `,"s":"`) {
		if v.Str, ok = s.str(); !ok {
			return v, false
		}
	}
	if key(`"n":`, `,"n":`) {
		b, ok := s.number()
		f, err := strconv.ParseFloat(string(b), 64)
		if !ok || err != nil {
			return v, false
		}
		v.Num = f
	}
	return v, s.lit("}")
}

package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// jsonLine is the reference writer: what the worker handler sent
// before the hand codec, json.Encoder.Encode.
func jsonLine(fr *ExecuteFrame) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(fr)
	return buf.Bytes(), err
}

// checkEncode holds appendFrame to the reference writer byte for byte
// (or error for error), and the written line to both readers.
func checkEncode(t *testing.T, fr *ExecuteFrame) {
	t.Helper()
	want, werr := jsonLine(fr)
	got, gerr := appendFrame([]byte("prefix"), fr)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("frame %+v: encoding/json error %v, appendFrame error %v", fr, werr, gerr)
	}
	if werr != nil {
		if string(got) != "prefix" {
			t.Fatalf("failed appendFrame left %q in dst", got)
		}
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("frame %+v:\n appendFrame    %q\n encoding/json  %q", fr, got[len("prefix"):], want)
	}
	checkDecode(t, want)
	checkDecode(t, bytes.TrimSuffix(want, []byte("\n"))) // as the line scanner hands it over
}

// checkDecode holds decodeFrame to json.Unmarshal on one line: the
// same accept/reject decision and, when accepted, the same value.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	var want ExecuteFrame
	werr := json.Unmarshal(line, &want)
	got, gerr := decodeFrame(line)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("line %q: json.Unmarshal error %v, decodeFrame error %v", line, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q:\n decodeFrame     %#v\n json.Unmarshal  %#v", line, got, want)
	}
	// The hand path alone must never accept what encoding/json rejects
	// or reads differently.
	var hand ExecuteFrame
	if decodeBatchFrame(line, &hand) {
		if werr != nil {
			t.Fatalf("line %q: hand path accepted, json.Unmarshal says %v", line, werr)
		}
		if !reflect.DeepEqual(hand, want) {
			t.Fatalf("line %q:\n hand path       %#v\n json.Unmarshal  %#v", line, hand, want)
		}
	}
}

// generateFrame builds a batch frame from fuzz bytes: arbitrary kinds,
// arbitrary string bytes (quotes, escapes, invalid UTF-8) and
// arbitrary float bit patterns (NaN, ±Inf, -0, subnormals).
func generateFrame(data []byte, seq int) *ExecuteFrame {
	fr := &ExecuteFrame{Seq: seq}
	next := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	var tuple WireTuple
	for len(data) > 0 {
		op := next(1)[0]
		switch op % 8 {
		case 0: // close the tuple
			fr.Batch = append(fr.Batch, tuple)
			tuple = WireTuple{}
		case 1: // a nil tuple
			fr.Batch = append(fr.Batch, nil)
		case 2:
			tuple = append(tuple, WireValue{})
		case 3:
			tuple = append(tuple, WireValue{Kind: "s", Str: string(next(int(op) / 8))})
		case 4:
			tuple = append(tuple, WireValue{Kind: "n", Num: float64(int8(op)) / 4})
		case 5:
			var bits [8]byte
			copy(bits[:], next(8))
			tuple = append(tuple, WireValue{Kind: "d", Num: math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))})
		case 6: // a kind the wire does not define, with both payloads
			tuple = append(tuple, WireValue{Kind: string(next(2)), Str: "x", Num: 1})
		case 7:
			tuple = append(tuple, WireValue{Str: string(next(3))})
		}
	}
	if tuple != nil {
		fr.Batch = append(fr.Batch, tuple)
	}
	return fr
}

// frameSeeds are wire lines (and fragments of them) covering what the
// hand paths must hand back to encoding/json, and what they must not.
var frameSeeds = []string{
	`{"batch":[[{"k":"s","s":"Milano"},{"k":"n","n":120.5},{"k":"d","n":14000},{}]],"seq":3}` + "\n",
	`{"batch":[[]]}`,
	`{"batch":[[],null,[{}]],"seq":1}`,
	`{"batch":[[{"k":"s","s":"say \"hi\""},{"k":"s","s":"back\\slash"},{"k":"s","s":"a<b>&c"}]]}`,
	`{"batch":[[{"k":"s","s":"München"},{"k":"s","s":"\u2028"},{"k":"s","s":"tab\there"}]]}`,
	`{"batch":[[{"k":"n","n":-0},{"k":"n","n":1e21},{"k":"n","n":1e-7},{"k":"n","n":999999999999999999999}]]}`,
	`{"batch":[[{"k":"n","n":0.000001},{"k":"n","n":-12.25},{"k":"n","n":01}]],"seq":9223372036854775807}`,
	`{"batch":[[{"k":"n","n":1}]],"seq":92233720368547758070}`,
	`{"batch":[[{"k":"n","n":1}]],"seq":0}`,
	`{"batch":[[{"k":"x","s":"y","n":2}]],"seq":-1}`,
	`{"batch":[[{"s":"y","k":"s"}]]}`,
	`{"batch":[[{"k":"s""s":"y"}]]}`,
	`{"batch":[[{"k":"s","k":"n"}]]}`,
	`{"batch":[[{"k":"s",}]]}`,
	`{"batch":[[{"k":"s","s":"Mil`,
	`{"batch":[[{"k":"s","s":"x"}]`,
	`{"batch":[[{"k":"s","s":"x"}]]} {}`,
	`{ "batch" : [ [ { "k" : "s" } ] ] }`,
	`{"Batch":[[{"K":"s"}]],"SEQ":2}`,
	`{"batch":[],"seq":1}`,
	`{"batch":null}`,
	`{"done":{"tuples":3,"calls":{"conf":1}}}`,
	`{"error":"boom","budget_exceeded":true,"budget_reason":"calls","budget_limit":"1"}`,
	`{"batch":[[{"k":"s","s":"x"}]],"seq":1,"extra":true}`,
	``,
	`null`,
}

// FuzzBatchFrame is the differential for the hand frame codec, both
// directions against encoding/json: every input is read as a wire line
// (decodeFrame ≡ json.Unmarshal), every frame it parses to and every
// frame generated from its bytes is written (appendFrame ≡
// json.Encoder byte for byte) and read back.
func FuzzBatchFrame(f *testing.F) {
	for i, s := range frameSeeds {
		f.Add([]byte(s), i)
	}
	f.Add([]byte{3 + 8*4, 'a', '"', '\\', 0xff, 4, 5, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 1, 2, 6, 'k', '<'}, 1<<40)
	f.Fuzz(func(t *testing.T, data []byte, seq int) {
		checkDecode(t, data)
		var parsed ExecuteFrame
		if json.Unmarshal(data, &parsed) == nil {
			checkEncode(t, &parsed)
		}
		checkEncode(t, generateFrame(data, seq))
	})
}

// TestFrameCodecHandPath: the plain frames the wire actually carries
// take the hand paths (or the fuzz target would be comparing
// encoding/json with itself), and the unusual ones do not.
func TestFrameCodecHandPath(t *testing.T) {
	plain := &ExecuteFrame{Seq: 7, Batch: []WireTuple{
		{{Kind: "s", Str: "Milano"}, {Kind: "n", Num: 120.5}, {Kind: "d", Num: 14000}, {}},
		{}, nil,
	}}
	line, ok := appendBatchFrame(nil, plain)
	if !ok {
		t.Fatal("plain batch frame fell back to encoding/json")
	}
	var back ExecuteFrame
	if !decodeBatchFrame(bytes.TrimSuffix(line, []byte("\n")), &back) || !reflect.DeepEqual(&back, plain) {
		t.Fatalf("hand decode of %q = %#v", line, back)
	}
	checkEncode(t, plain)
	for _, fr := range []*ExecuteFrame{
		{Done: &ExecuteResult{Tuples: 1}},
		{Error: "boom"},
		{Batch: []WireTuple{{{Kind: "s", Str: `quo"te`}}}},
		{Batch: []WireTuple{{{Kind: "s", Str: "München"}}}},
		{Batch: []WireTuple{{{Kind: "n", Num: math.Copysign(0, -1)}}}},
		{Batch: []WireTuple{{{Kind: "n", Num: 1e21}}}},
		{Batch: []WireTuple{{{Kind: "n", Num: math.NaN()}}}},
	} {
		if _, ok := appendBatchFrame(nil, fr); ok {
			t.Errorf("frame %+v took the hand path", fr)
		}
		checkEncode(t, fr)
	}
}

// BenchmarkBatchFrameCodec writes and reads back one full batch frame
// (DefaultExecuteBatch tuples of the travel plan's width), by the hand
// codec and by encoding/json.
func BenchmarkBatchFrameCodec(b *testing.B) {
	fr := &ExecuteFrame{Seq: 3}
	for i := 0; i < DefaultExecuteBatch; i++ {
		fr.Batch = append(fr.Batch, WireTuple{
			{Kind: "s", Str: "Conference on Very Large Data Bases"}, {Kind: "s", Str: "Milano"},
			{Kind: "d", Num: 14000 + float64(i)}, {Kind: "d", Num: 14003 + float64(i)},
			{Kind: "s", Str: "Hotel Principe di Savoia"}, {Kind: "n", Num: 120.5 + float64(i)},
			{Kind: "n", Num: 310}, {},
		})
	}
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		var line []byte
		for i := 0; i < b.N; i++ {
			line, _ = appendBatchFrame(line[:0], fr)
			var back ExecuteFrame
			if !decodeBatchFrame(line[:len(line)-1], &back) || len(back.Batch) != len(fr.Batch) {
				b.Fatal("hand codec lost the frame")
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			line, err := jsonLine(fr)
			var back ExecuteFrame
			if err != nil || json.Unmarshal(line, &back) != nil || len(back.Batch) != len(fr.Batch) {
				b.Fatal("encoding/json lost the frame")
			}
		}
	})
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"knncost/internal/geom"
)

// field is one top-level key of a body with its value's bytes; a repeated
// key appears once per occurrence.
type field struct {
	key string
	raw json.RawMessage
}

// topLevelFields lists the fields of a body that is a valid JSON object,
// and nothing for any other body.
func topLevelFields(body []byte) []field {
	if !json.Valid(body) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil
	}
	var fields []field
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil
		}
		f := field{key: tok.(string)}
		if dec.Decode(&f.raw) != nil {
			return nil
		}
		fields = append(fields, f)
	}
	return fields
}

// malformedPoint reports whether raw, a "points" value encoding/json
// accepts, holds an element that is not exactly two numbers — what
// encoding/json zero-fills or truncates and the scanner refuses.
func malformedPoint(raw json.RawMessage) bool {
	var elems []json.RawMessage
	if json.Unmarshal(raw, &elems) != nil {
		return false
	}
	for _, e := range elems {
		var coords []json.RawMessage
		if json.Unmarshal(e, &coords) != nil || len(coords) != 2 {
			return true // null, or an array of another length
		}
		for _, c := range coords {
			if c[0] != '-' && (c[0] < '0' || c[0] > '9') {
				return true // null where a number belongs
			}
		}
	}
	return false
}

// checkAgainstEncodingJSON holds one scanner verdict (got) against
// encoding/json's on the same bytes (want) for a body whose fields named in
// known are the ones decoded. same compares the decoded values and is only
// called when both accepted.
func checkAgainstEncodingJSON(t *testing.T, body []byte, got, want error, known []string, same func() bool) {
	t.Helper()
	if got == nil && !json.Valid(body) {
		t.Fatalf("scanner accepts a body that is not valid JSON: %q", body)
	}
	fields := topLevelFields(body)
	for _, f := range fields {
		for _, k := range known {
			if f.key != k && strings.EqualFold(f.key, k) {
				return // encoding/json folds this key into k; the scanner, by design, does not
			}
		}
	}
	switch {
	case got == nil && want != nil:
		t.Fatalf("scanner accepts what encoding/json rejects (%v): %q", want, body)
	case got == nil && !same():
		t.Fatalf("scanner and encoding/json decode different values from %q", body)
	case got != nil && want == nil:
		for _, f := range fields {
			if f.key == "points" && malformedPoint(f.raw) {
				return
			}
		}
		t.Fatalf("scanner rejects (%v) what encoding/json accepts, and no point is malformed: %q", got, body)
	}
}

func samePoints(got []geom.Point, want [][2]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, p := range got {
		if math.Float64bits(p.X) != math.Float64bits(want[i][0]) || math.Float64bits(p.Y) != math.Float64bits(want[i][1]) {
			return false
		}
	}
	return true
}

// FuzzDecodePointsBody is the differential of the one-pass decoders against
// encoding/json on the same bytes. Whenever the scanner accepts,
// encoding/json accepts and yields the same name, file and resolution and
// bit-identical coordinates; whenever encoding/json rejects, the scanner
// rejects. The only differences allowed are the two documented ones: a
// point that is not exactly two numbers is refused, and keys match exactly.
func FuzzDecodePointsBody(f *testing.F) {
	for _, seed := range []string{
		`{"name":"a","points":[[1,2],[3.5,-4e2]],"file":"f","resolution":{"max_k":5,"corners":-1}}`,
		`{"points":[[1e999,0]]}`, `{"points":[[-0,0]]}`, `{"points":[[01,0]]}`, `{"points":[[1.,0]]}`,
		`{"points":[[1e,0]]}`, `{"points":[[1e-999,1E+2]]}`, `{"points":[[0.1e1,-0.0]]}`,
		`{"points":[[1]]}`, `{"points":[[1,2,3]]}`, `{"points":[[]]}`, `{"points":[null]}`, `{"points":[[null,1]]}`,
		`{"points":null}`, `{"points":[]}`, `{"points":[[1]],"points":[[1,2]]}`, `{"points":[[1,2]],"points":null}`,
		`{"name":"a","points":[[1,2]]}`, `{"Name":5,"name":"a"}`, `{"POINTS":[[1]],"pointſ":[[2]]}`,
		`{"name":5}`, `{"name":null,"file":null,"resolution":null}`, `{"resolution":{"max_k":1},"resolution":{"MAX_K":2,"corners":1}}`,
		// Deep, not limit-deep: the fuzzer minimises what it finds byte by
		// byte, and TestDecodeRegistrationRules holds the nesting limit.
		`{"x":` + strings.Repeat(`[{"y":`, 40) + `1` + strings.Repeat("}]", 40) + `,"name":"a"}`,
		`{"x":{"a":[1,"]",{"b":"\\\""}]},"name":"a"}`, `{"x":[1,]}`, `{"x":tru}`, "{\"x\":\"\x01\"}", "{\"na\xffme\":\"\xff\"}",
		`{"name":"a"} `, `{"name":"a"}x`, `{"name":"a"}{}`, `null`, `[]`, `"name"`, ` `, `{"name":"\ud800"}`,
	} {
		f.Add([]byte(seed))
	}
	for _, tok := range numberEdges {
		f.Add([]byte(`{"points":[[` + tok + `,-` + tok + `]]}`))
	}
	small := `{"name":"a\n","points":[[1,2.5],[-3e2,4]] , "resolution":{"max_k":5},"x":[null,{"y":"}"}]}`
	for i := range small {
		f.Add([]byte(small[:i]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reg, err := DecodeRegistration(body)
		var ref RegisterRequest
		checkAgainstEncodingJSON(t, body, err, json.Unmarshal(body, &ref), []string{"name", "file", "resolution", "points"}, func() bool {
			return reg.Name == ref.Name && reg.File == ref.File &&
				reflect.DeepEqual(reg.Resolution, ref.Resolution) && samePoints(reg.Points, ref.Points)
		})
		// What the router reads is what the owners will register under.
		if name, nameErr := RegistrationName(body); err == nil && (nameErr != nil || name != reg.Name) {
			t.Fatalf("RegistrationName = %q, %v; DecodeRegistration names %q: %q", name, nameErr, reg.Name, body)
		}

		pts, err := decodeMutation(body)
		var mref MutateRequest
		checkAgainstEncodingJSON(t, body, err, json.Unmarshal(body, &mref), []string{"points"}, func() bool {
			return samePoints(pts, mref.Points)
		})
	})
}

// skipValueByteByByte is skipValue as it was before it skipped in bulk:
// one peek and one switch per byte. FuzzRegistrationName holds skipValue to
// it.
func (s *bodyScanner) skipValueByteByByte() ([]byte, error) {
	start := s.i
	switch s.peek() {
	case '"':
		if err := s.skipStringByteByByte(); err != nil {
			return nil, err
		}
	case '{', '[':
		for depth := 0; ; {
			switch s.peek() {
			case 0:
				return nil, s.errorf("unexpected end of body")
			case '"':
				if err := s.skipStringByteByByte(); err != nil {
					return nil, err
				}
				continue
			case '{', '[':
				if depth++; depth > maxValueDepth {
					return nil, s.errorf("exceeded max nesting depth")
				}
			case '}', ']':
				depth--
			}
			if s.i++; depth == 0 {
				return s.b[start:s.i], nil
			}
		}
	default:
		for !delimiter(s.peek()) {
			s.i++
		}
		if s.i == start {
			return nil, s.errorf("expected a value")
		}
	}
	return s.b[start:s.i], nil
}

func (s *bodyScanner) skipStringByteByByte() error {
	if !s.eat('"') {
		return s.errorf("expected a string")
	}
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return nil
		case c == '\\':
			s.i++
		case c < ' ':
			return s.errorf("control character in string")
		}
	}
	s.i = len(s.b)
	return s.errorf("unterminated string")
}

// FuzzRegistrationName: the router's name scan never panics, names every
// body DecodeRegistration accepts as DecodeRegistration does, and its bulk
// skip steps over any value, valid or not, from any offset, exactly as far
// as a byte-by-byte walk does and with the same error.
func FuzzRegistrationName(f *testing.F) {
	for _, seed := range []string{
		`{"name":"a","points":[[1,2],[3.5,-4e2]],"file":"f","resolution":{"max_k":5,"corners":-1}}`,
		`{"points":[[1,2],[3,4]],"name":"b"}`, `{"points":[[1],[1,2,3],nonsense],"name":"a"}`,
		`{"name":"a","x":{"name":"inner"},"name":"b"}`, `{"name":"a","points":[[1,2]`, `{"name":"a"} trailing`,
		`{"x":[1,"]\"[",{"b":"\\\"}"}],"name":"c"}`, "{\"x\":[1,\x00],\"name\":\"a\"}", "{\"x\":\"a\x01\",\"name\":\"a\"}",
		`{"x":[[[[]]]],"name":"a"}`, `{"x":[1][2],"name":"a"}`, `{"x":"\\`, `[]`, `null`, `{"name":5}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		name, err := RegistrationName(body)
		if reg, regErr := DecodeRegistration(body); regErr == nil && (err != nil || name != reg.Name) {
			t.Fatalf("RegistrationName = %q, %v; DecodeRegistration names %q: %q", name, err, reg.Name, body)
		}
		for i := range min(len(body), 64) {
			bulk, walk := bodyScanner{b: body, i: i}, bodyScanner{b: body, i: i}
			got, gotErr := bulk.skipValue()
			want, wantErr := walk.skipValueByteByByte()
			if !bytes.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || bulk.i != walk.i {
				t.Fatalf("skipValue from %d of %q: %q, %v, at %d; byte by byte %q, %v, at %d",
					i, body, got, gotErr, bulk.i, want, wantErr, walk.i)
			}
		}
	})
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strconv"

	"knncost/internal/geom"
)

// The bodies that carry points — POST /relations and POST/DELETE
// /relations/{name}/points — are decoded here in one pass over one buffer:
// the top-level object is walked by hand, "points" is parsed straight into
// the []geom.Point the store keeps, and every other field's raw bytes go to
// encoding/json, so their semantics are encoding/json's. RegisterRequest and
// MutateRequest remain the description of the wire shape clients marshal;
// the server never decodes into them. Two rules are stricter than
// encoding/json's: a point is exactly two JSON numbers (encoding/json
// zero-fills [1] and truncates [1,2,3]), and keys match exactly, not
// case-folded.

// MaxRegisterBody bounds a registration or mutation body (16 MiB ≈ half a
// million inline points) so a misbehaving client cannot exhaust server
// memory.
const MaxRegisterBody = 16 << 20

// maxBodyPrealloc is the most ReadBody allocates on the word of a
// Content-Length header, before any of the body has arrived.
const maxBodyPrealloc = 1 << 20

// ReadBody reads a request body of at most limit bytes. A declared
// Content-Length of up to maxBodyPrealloc sizes the one buffer the body is
// read into; a longer or undeclared body grows the buffer by doubling as its
// bytes arrive, so a client that sends headers and stalls holds no more than
// maxBodyPrealloc.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	// ReadFrom wants bytes.MinRead of room to find the end of the body in.
	size := min(max(r.ContentLength, 0), limit, maxBodyPrealloc) + bytes.MinRead
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadJSONPost is the prelude of every route that takes a JSON POST, here and
// in the shard router: 405 with Allow unless the method is POST, then as
// readJSONBody.
func ReadJSONPost(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Error: fmt.Sprintf("method %s not allowed; use POST", r.Method)})
		return nil, false
	}
	return readJSONBody(w, r, limit, what)
}

// readJSONBody is ReadJSONPost for the routes the mux has dispatched by
// method already: 415 for a Content-Type other than application/json (none
// is taken for JSON), 400 "<what>: <cause>" for a body that cannot be read
// within limit; ok is false after either answer.
func readJSONBody(w http.ResponseWriter, r *http.Request, limit int64, what string) (body []byte, ok bool) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			writeJSON(w, http.StatusUnsupportedMediaType,
				errorResponse{Error: fmt.Sprintf("Content-Type %q not supported; use application/json", ct)})
			return nil, false
		}
	}
	body, err := ReadBody(w, r, limit)
	if err != nil {
		badRequest(w, "%s: %v", what, err)
		return nil, false
	}
	return body, true
}

// Registration is a decoded POST /relations body: RegisterRequest's fields
// with the points in the form the store keeps. Nothing in it aliases the
// body it was decoded from.
type Registration struct {
	Name       string
	File       string
	Resolution *ResolutionSpec
	Points     []geom.Point
}

// DecodeRegistration decodes a POST /relations body. Duplicate keys keep the
// last value, "points": null or [] means no inline points, and unknown
// fields are ignored once they are valid JSON — as encoding/json would have
// it for RegisterRequest.
func DecodeRegistration(body []byte) (Registration, error) {
	var reg Registration
	s := bodyScanner{b: body}
	err := s.object(func(key []byte) (err error) {
		switch string(key) {
		case "name":
			return s.unmarshal(&reg.Name)
		case "file":
			return s.unmarshal(&reg.File)
		case "resolution":
			return s.unmarshal(&reg.Resolution)
		case "points":
			reg.Points, err = s.points(reg.Points)
			return err
		}
		return s.skipValid()
	})
	if err != nil {
		return Registration{}, err
	}
	return reg, nil
}

// decodeMutation decodes a POST or DELETE /relations/{name}/points body
// (MutateRequest) into its points.
func decodeMutation(body []byte) ([]geom.Point, error) {
	var pts []geom.Point
	s := bodyScanner{b: body}
	err := s.object(func(key []byte) (err error) {
		if string(key) == "points" {
			pts, err = s.points(pts)
			return err
		}
		return s.skipValid()
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// RegistrationName returns the "name" of a POST /relations body without
// materialising anything else: the router needs only the name to place a
// registration. Every other value is stepped over unvalidated — the shards
// the body is forwarded to decode it in full and answer for it.
func RegistrationName(body []byte) (string, error) {
	var name string
	s := bodyScanner{b: body}
	err := s.object(func(key []byte) error {
		if string(key) == "name" {
			return s.unmarshal(&name)
		}
		_, err := s.skipValue()
		return err
	})
	if err != nil {
		return "", err
	}
	return name, nil
}

// bodyScanner is a cursor over one JSON request body.
type bodyScanner struct {
	b []byte
	i int
}

func (s *bodyScanner) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" at offset %d", append(args, s.i)...)
}

func (s *bodyScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next byte, 0 at the end of the body.
func (s *bodyScanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// eatNull consumes the literal null when it is next.
func (s *bodyScanner) eatNull() bool {
	if !bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		return false
	}
	s.i += len("null")
	return true
}

// eat consumes c when it is the next byte.
func (s *bodyScanner) eat(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// object walks the body as one JSON object and nothing after it. field is
// called with each key (escapes decoded) and the cursor on the first byte
// of the key's value, which it must consume. A null body is an object
// without fields, as it is to encoding/json.
func (s *bodyScanner) object(field func(key []byte) error) error {
	s.space()
	switch {
	case s.eatNull():
	case !s.eat('{'):
		return s.errorf("body must be a JSON object")
	default:
		s.space()
		if err := s.fields(field); err != nil {
			return err
		}
	}
	s.space()
	if s.i != len(s.b) {
		return s.errorf("unexpected data after the JSON object")
	}
	return nil
}

// fields walks an object's fields from after its '{' to after its '}'.
func (s *bodyScanner) fields(field func(key []byte) error) error {
	for more := !s.eat('}'); more; {
		key, err := s.key()
		if err != nil {
			return err
		}
		s.space()
		if !s.eat(':') {
			return s.errorf("expected ':' after object key")
		}
		s.space()
		if err := field(key); err != nil {
			return err
		}
		s.space()
		if more = s.eat(','); !more && !s.eat('}') {
			return s.errorf("expected ',' or '}' after object value")
		}
		s.space()
	}
	return nil
}

// key consumes an object key and returns it with its escapes decoded. The
// result may alias the body; callers only compare it.
func (s *bodyScanner) key() ([]byte, error) {
	start := s.i
	if err := s.skipString(); err != nil {
		return nil, err
	}
	raw := s.b[start:s.i]
	if bytes.IndexByte(raw, '\\') < 0 {
		return raw[1 : len(raw)-1], nil
	}
	var k string
	if err := json.Unmarshal(raw, &k); err != nil {
		return nil, fmt.Errorf("%v (key at offset %d)", err, start)
	}
	return []byte(k), nil
}

// stringStops are the bytes a string's scan stops at: its closing quote,
// an escape's backslash and the control characters JSON forbids in it.
const stringStops = "\"\\\x00\x01\x02\x03\x04\x05\x06\x07\x08\t\n\x0b\x0c\r\x0e\x0f" +
	"\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f"

// skipString consumes a string token, jumping from stop to stop. Control
// characters are rejected here; the escapes are only stepped over, so a
// token with a backslash still has to pass encoding/json.
func (s *bodyScanner) skipString() error {
	if !s.eat('"') {
		return s.errorf("expected a string")
	}
	for s.i < len(s.b) {
		j := bytes.IndexAny(s.b[s.i:], stringStops)
		if j < 0 {
			break
		}
		s.i += j
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return nil
		case c == '\\':
			s.i += 2
		default:
			return s.errorf("control character in string")
		}
	}
	s.i = len(s.b)
	return s.errorf("unterminated string")
}

// maxValueDepth is encoding/json's nesting limit (10000) less the top-level
// object, so a body encoding/json would reject for depth is rejected here.
const maxValueDepth = 9999

// fenceStops are the bytes besides brackets that a container's scan stops
// at: braces, the quote that opens a string, and NUL, which peek reads at
// the end of the body and which ends the scan wherever it is.
var fenceStops = [...]byte{'{', '}', '"', 0}

// next returns where the next c at or after s.i and before end lies, end
// when there is none.
func (s *bodyScanner) next(c byte, end int) int {
	if j := bytes.IndexByte(s.b[s.i:end], c); j >= 0 {
		return s.i + j
	}
	return end
}

// skipValue consumes one value and returns its bytes. Only their extent is
// established (strings closed, brackets balanced by count): a caller that
// keeps the value hands it to encoding/json, which validates it in full.
// A container is crossed from stop to stop, each found by a vectorised
// bytes.IndexByte and looked for again only once the cursor has passed it:
// the fence is the nearest brace, quote or NUL, and between two fences
// only the next '[' and the next ']' are looked for. So the numbers between
// a point's brackets are never looked at one by one.
func (s *bodyScanner) skipValue() ([]byte, error) {
	start := s.i
	switch s.peek() {
	case '"':
		if err := s.skipString(); err != nil {
			return nil, err
		}
	case '{', '[':
		fences := [len(fenceStops)]int{-1, -1, -1, -1}
		fence, open, close := -1, -1, -1
		for depth := 0; ; {
			if fence < s.i {
				fence = len(s.b)
				for k, c := range fenceStops {
					if fences[k] < s.i {
						fences[k] = s.next(c, len(s.b))
					}
					fence = min(fence, fences[k])
				}
			}
			if open < s.i {
				open = s.next('[', fence)
			}
			if close < s.i {
				close = s.next(']', fence)
			}
			s.i = min(open, close)
			switch s.peek() {
			case 0:
				return nil, s.errorf("unexpected end of body")
			case '"':
				if err := s.skipString(); err != nil {
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
		// A number or literal runs to the next delimiter.
		for !delimiter(s.peek()) {
			s.i++
		}
		if s.i == start {
			return nil, s.errorf("expected a value")
		}
	}
	return s.b[start:s.i], nil
}

// delimiter reports whether c ends a number or literal: whitespace, a
// separator, a closing bracket, or the end of the body.
func delimiter(c byte) bool {
	switch c {
	case 0, ' ', '\t', '\r', '\n', ',', '}', ']':
		return true
	}
	return false
}

// unmarshal consumes one value and decodes it into v with encoding/json.
func (s *bodyScanner) unmarshal(v any) error {
	start := s.i
	raw, err := s.skipValue()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%v (value at offset %d)", err, start)
	}
	return nil
}

// skipValid consumes the value of a field nobody reads; it still has to be
// valid JSON for the body to be.
func (s *bodyScanner) skipValid() error {
	start := s.i
	raw, err := s.skipValue()
	if err != nil {
		return err
	}
	if !json.Valid(raw) {
		return fmt.Errorf("invalid JSON value at offset %d", start)
	}
	return nil
}

// points consumes a "points" value — null or [[x,y],…] — and returns the
// points in dst's storage, emptied first (a repeated key keeps the last
// value). Storage is allocated once per body, by the first array that holds
// a point, for the most points the body can hold: one per '[' after the
// outer one, and none shorter than "[0,0],". null and [] allocate nothing
// and give none of it up, so a body that repeats the key costs no more than
// its length.
func (s *bodyScanner) points(dst []geom.Point) ([]geom.Point, error) {
	dst = dst[:0]
	if s.eatNull() {
		return dst, nil
	}
	if !s.eat('[') {
		return nil, s.errorf("points must be an array of [x, y] pairs")
	}
	s.space()
	if s.eat(']') {
		return dst, nil
	}
	if cap(dst) == 0 {
		dst = make([]geom.Point, 0, min(bytes.Count(s.b, []byte("["))-1, len(s.b)/len("[0,0],")))
	}
	for {
		p, err := s.point()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", len(dst), err)
		}
		dst = append(dst, p)
		s.space()
		if s.eat(']') {
			return dst, nil
		}
		if !s.eat(',') {
			return nil, s.errorf("expected ',' or ']' after point %d", len(dst)-1)
		}
		s.space()
	}
}

// point consumes one [x, y]: exactly two numbers. An array of any other
// length is walked to its end, so the error can say what it held, and
// reported at the offset where it starts.
func (s *bodyScanner) point() (geom.Point, error) {
	start := s.i
	if !s.eat('[') {
		return geom.Point{}, s.errorf("want [x, y]")
	}
	var c [2]float64
	n := 0
	for s.space(); !s.eat(']'); s.space() {
		if n > 0 && !s.eat(',') {
			return geom.Point{}, s.errorf("expected ',' or ']' after a coordinate")
		}
		s.space()
		f, err := s.number()
		if err != nil {
			return geom.Point{}, err
		}
		if n < len(c) {
			c[n] = f
		}
		n++
	}
	if n != len(c) {
		return geom.Point{}, fmt.Errorf("want exactly 2 coordinates, got %d at offset %d", n, start)
	}
	return geom.Point{X: c[0], Y: c[1]}, nil
}

// number consumes one token of the JSON number grammar and converts it the
// way encoding/json does; a value float64 cannot hold is an error. A token
// without an exponent part is ±man/10^frac exactly, in digits the scan has
// already run into man, and decimalToFloat converts it from there. Only
// what that cannot take goes to strconv.ParseFloat: an exponent part, more
// than 19 significant digits, more than its table's 30 decimals, a halfway
// case. Both give the correctly rounded float64, so the bits do not depend
// on which path took the token.
func (s *bodyScanner) number() (float64, error) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// nd counts the digits from the first nonzero one; past 19 man wraps.
	var man uint64
	nd, frac := 0, 0
	if from := i; i < len(b) && b[i] == '0' {
		i++
	} else if i, man = scanDigits(b, i, 0); i == from {
		return 0, s.errorf("expected a number")
	} else {
		nd = i - from
	}
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		for man == 0 && i < len(b) && b[i] == '0' {
			i++ // a leading zero of 0.0…
		}
		sig := i
		if i, man = scanDigits(b, i, man); i == from {
			return 0, s.errorf("invalid number")
		}
		nd, frac = nd+i-sig, i-from
	}
	exact := nd <= 19
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exact = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		from := i
		if i, _ = scanDigits(b, i, 0); i == from {
			return 0, s.errorf("invalid number")
		}
	}
	if exact {
		if f, ok := decimalToFloat(man, frac, neg); ok {
			s.i = i
			return f, nil
		}
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, s.errorf("number %s does not fit a float64", b[s.i:i])
	}
	s.i = i
	return f, nil
}

// scanDigits consumes the digits at b[i:], runs them into man, and returns
// where they end.
func scanDigits(b []byte, i int, man uint64) (int, uint64) {
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man
}

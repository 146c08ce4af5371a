package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"knncost/internal/geom"
	"knncost/internal/store"
)

// sendBody sends raw bytes as a JSON body and returns status and response.
func sendBody(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// malformedPoints are "points" values encoding/json used to mangle into
// coordinates (zero-filling or truncating) and the byte offset, within the
// value, that the one-pass decoder's error must name: where the offending
// point starts, or the token that is not a number.
var malformedPoints = []struct {
	points string
	offset int
}{
	{`[[1]]`, 1},           // was (1,0)
	{`[[1,2,3]]`, 1},       // was (1,2)
	{`[[]]`, 1},            // was (0,0)
	{`[[1,2],[3]]`, 7},     // was (1,2),(3,0)
	{`[null]`, 1},          // was (0,0)
	{`[[null,1]]`, 2},      // was (0,1)
	{`[[1,2],[3,4,5]]`, 7}, // was (1,2),(3,4)
}

// TestPointArityRejected pins the fix for silent coordinate mangling: on
// register, append and delete a point that is not exactly two numbers is a
// 400 naming the byte offset, and nothing is applied.
func TestPointArityRejected(t *testing.T) {
	srv, st := mutateServer(t)
	if _, err := st.Register("live", inlinePoints2(200, 1)); err != nil {
		t.Fatal(err)
	}
	waitReadyHTTP(t, srv.URL, "live")
	before, _ := st.Status("live")

	for _, tc := range malformedPoints {
		for _, req := range []struct{ method, path, prefix string }{
			{http.MethodPost, "/relations", `{"name":"bad","points":`},
			{http.MethodPost, "/relations/live/points", `{"points":`},
			{http.MethodDelete, "/relations/live/points", `{"points":`},
		} {
			code, body := sendBody(t, req.method, srv.URL+req.path, req.prefix+tc.points+`}`)
			want := fmt.Sprintf("at offset %d", len(req.prefix)+tc.offset)
			if code != http.StatusBadRequest || !strings.Contains(body, want) {
				t.Errorf("%s %s points %s: got %d %s, want 400 with %q", req.method, req.path, tc.points, code, body, want)
			}
		}
	}
	if _, known := st.Status("bad"); known {
		t.Error("a registration with malformed points reached the store")
	}
	if after, _ := st.Status("live"); after.DeltaOps != before.DeltaOps {
		t.Errorf("malformed mutations were applied: delta ops %d -> %d", before.DeltaOps, after.DeltaOps)
	}
}

// TestDecodeRegistrationRules covers what the hand-written walk must keep
// from encoding/json and the two places it is stricter.
func TestDecodeRegistrationRules(t *testing.T) {
	res7 := &ResolutionSpec{MaxK: 7}
	one := []geom.Point{{X: 1, Y: 2}}
	for _, tc := range []struct {
		name, body string
		want       Registration
		wantErr    string
	}{
		{"plain", `{"name":"a","points":[[1,2]]}`, Registration{Name: "a", Points: one}, ""},
		{"whitespace", " {\n\t\"name\" : \"a\" ,\r\n \"points\" : [ [ 1 , 2 ] ] } \n", Registration{Name: "a", Points: one}, ""},
		{"file and resolution", `{"name":"a","file":"f.txt","resolution":{"max_k":7}}`,
			Registration{Name: "a", File: "f.txt", Resolution: res7}, ""},
		{"points null", `{"name":"a","points":null,"file":"f"}`, Registration{Name: "a", File: "f"}, ""},
		{"points empty", `{"name":"a","points":[],"file":"f"}`, Registration{Name: "a", File: "f", Points: []geom.Point{}}, ""},
		{"empty object", `{}`, Registration{}, ""},
		{"null body is an empty object", " null\n", Registration{}, ""},
		{"escaped key", `{"n\u0061me":"a","p\u006fints":[[1,2]]}`, Registration{Name: "a", Points: one}, ""},
		{"escaped value", `{"name":"ab\n"}`, Registration{Name: "ab\n"}, ""},
		{"duplicate name keeps last", `{"name":"a","name":"b"}`, Registration{Name: "b"}, ""},
		{"duplicate points keep last", `{"points":[[9,9],[8,8]],"points":[[1,2]]}`, Registration{Points: one}, ""},
		{"points then null", `{"points":[[9,9]],"points":null}`, Registration{}, ""},
		{"duplicate resolution merges like encoding/json", `{"resolution":{"max_k":7},"resolution":{"corners":2}}`,
			Registration{Resolution: &ResolutionSpec{MaxK: 7, Corners: 2}}, ""},
		{"resolution null", `{"resolution":{"max_k":7},"resolution":null}`, Registration{}, ""},
		{"unknown fields skipped", `{"x":{"points":[[1]],"name":[1,"}",{}]},"y":-1.5e3,"z":"\"}","name":"a"}`, Registration{Name: "a"}, ""},
		{"keys match exactly", `{"Name":"a","POINTS":[[1]]}`, Registration{}, ""},
		{"number forms", `{"points":[[-0,1e2],[1.5E-3,0.25]]}`,
			Registration{Points: []geom.Point{{X: math.Copysign(0, -1), Y: 100}, {X: 0.0015, Y: 0.25}}}, ""},

		{"not an object", `[]`, Registration{}, "body must be a JSON object at offset 0"},
		{"nullx body", `nullx`, Registration{}, "unexpected data after the JSON object at offset 4"},
		{"empty body", ``, Registration{}, "body must be a JSON object at offset 0"},
		{"trailing data", `{"name":"a"} x`, Registration{}, "unexpected data after the JSON object at offset 13"},
		{"second object", `{"name":"a"}{}`, Registration{}, "at offset 12"},
		{"trailing comma", `{"name":"a",}`, Registration{}, "expected a string at offset 12"},
		{"missing colon", `{"name" "a"}`, Registration{}, "expected ':'"},
		{"unknown field invalid", `{"x":[1,],"name":"a"}`, Registration{}, "invalid JSON value at offset 5"},
		{"unknown field bad literal", `{"x":nul}`, Registration{}, "invalid JSON value at offset 5"},
		{"unknown field mismatched", `{"x":[}]}`, Registration{}, "invalid JSON value"},
		{"bad escape in skipped string", `{"x":"\q"}`, Registration{}, "invalid JSON value at offset 5"},
		{"control character in key", "{\"na\x01me\":1}", Registration{}, "control character"},
		{"bad escape in key", `{"n\qme":1}`, Registration{}, "key at offset 1"},
		{"name not a string", `{"name":5}`, Registration{}, "cannot unmarshal number"},
		{"resolution not an object", `{"resolution":[1]}`, Registration{}, "cannot unmarshal array"},
		{"points not an array", `{"points":{"a":1}}`, Registration{}, "points must be an array"},
		{"points a string", `{"points":"[[1,2]]"}`, Registration{}, "points must be an array"},
		{"truncated", `{"name":"a","points":[[1,2],[3`, Registration{}, "at offset 30"},
		{"leading zero", `{"points":[[01,2]]}`, Registration{}, "at offset 13"},
		{"bare dot", `{"points":[[1.,2]]}`, Registration{}, "invalid number"},
		{"bare exponent", `{"points":[[1e,2]]}`, Registration{}, "invalid number"},
		{"plus sign", `{"points":[[+1,2]]}`, Registration{}, "expected a number"},
		{"hex", `{"points":[[0x10,2]]}`, Registration{}, "at offset 13"},
		{"NaN", `{"points":[[NaN,2]]}`, Registration{}, "expected a number"},
		{"overflow", `{"points":[[1e999,2]]}`, Registration{}, "does not fit a float64"},
		{"quoted number", `{"points":[["1",2]]}`, Registration{}, "expected a number"},
		{"nested point", `{"points":[[[1,2]]]}`, Registration{}, "expected a number"},
		{"too deep", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, Registration{}, "nesting depth"},
	} {
		got, err := DecodeRegistration([]byte(tc.body))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "" && !sameRegistration(got, tc.want):
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// The deepest value encoding/json takes is taken.
	deep := `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`
	if _, err := DecodeRegistration([]byte(deep)); err != nil || json.Unmarshal([]byte(deep), new(RegisterRequest)) != nil {
		t.Errorf("depth 10000 body: scanner %v", err)
	}
}

// sameRegistration compares bit for bit, so -0 and 0 differ.
func sameRegistration(a, b Registration) bool {
	if a.Name != b.Name || a.File != b.File || !reflect.DeepEqual(a.Resolution, b.Resolution) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if math.Float64bits(a.Points[i].X) != math.Float64bits(b.Points[i].X) ||
			math.Float64bits(a.Points[i].Y) != math.Float64bits(b.Points[i].Y) {
			return false
		}
	}
	return true
}

// TestDecodedValuesDoNotAliasBody lets the handlers drop (or one day pool)
// the body buffer the moment decoding returns.
func TestDecodedValuesDoNotAliasBody(t *testing.T) {
	body := []byte(`{"name":"plain","file":"data/txt","resolution":{"max_k":9},"points":[[1.25,2.5],[3,4]]}`)
	reg, err := DecodeRegistration(body)
	if err != nil {
		t.Fatal(err)
	}
	name, err := RegistrationName(body)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := decodeMutation(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	want := Registration{Name: "plain", File: "data/txt", Resolution: &ResolutionSpec{MaxK: 9},
		Points: []geom.Point{{X: 1.25, Y: 2.5}, {X: 3, Y: 4}}}
	if !sameRegistration(reg, want) || name != "plain" || !sameRegistration(Registration{Points: pts}, Registration{Points: want.Points}) {
		t.Errorf("decoded values changed with the body: %+v, %q, %v", reg, name, pts)
	}
}

// TestRegistrationNameSkipsEverythingElse: the router's extraction takes the
// last "name", rejects a body it cannot walk, and does not look inside the
// values it steps over — those are the owners' to refuse.
func TestRegistrationNameSkipsEverythingElse(t *testing.T) {
	for _, tc := range []struct {
		body, want string
		ok         bool
	}{
		{`{"name":"a","points":[[1,2]]}`, "a", true},
		{`{"points":[[1],[1,2,3],nonsense],"name":"a"}`, "a", true},
		{`{"name":"a","x":{"name":"inner"},"name":"b"}`, "b", true},
		{`{"name":"a"}`, "a", true},
		{`{"points":[[1,2]]}`, "", true},
		{`{"name":5}`, "", false},
		{`{"name":"a","points":[[1,2]`, "", false},
		{`{"name":"a"} trailing`, "", false},
		{`[]`, "", false},
	} {
		got, err := RegistrationName([]byte(tc.body))
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("RegistrationName(%s) = %q, %v; want %q, ok=%v", tc.body, got, err, tc.want, tc.ok)
		}
	}
}

// bigBody is a registration body of n points shaped like the benchmark's.
func bigBody(t testing.TB, n int) []byte {
	body, err := json.Marshal(RegisterRequest{Name: "big", Points: inlinePoints(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// bytesPerRun is the heap bytes one call of fn allocates: the least of a
// few runs, so that what anything else in the process allocates meanwhile
// is not charged to fn.
func bytesPerRun(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeAllocCeilings pins what a registration costs beyond its body
// buffer: the points slice and a few small values for the owner, a few
// small values and nothing proportional to the body for the router.
func TestDecodeAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	const n = 20_000
	body := bigBody(t, n)
	decode := func() {
		if reg, err := DecodeRegistration(body); err != nil || len(reg.Points) != n {
			t.Fatalf("decoded %d points, err %v", len(reg.Points), err)
		}
	}
	name := func() {
		if got, err := RegistrationName(body); err != nil || got != "big" {
			t.Fatalf("name %q, err %v", got, err)
		}
	}
	if got := testing.AllocsPerRun(5, decode); got > 12 {
		t.Errorf("DecodeRegistration: %.0f allocs, want <= 12", got)
	}
	if got, limit := bytesPerRun(decode), uint64(16*n+32<<10); got > limit {
		t.Errorf("DecodeRegistration: %d bytes, want <= %d", got, limit)
	}
	if got := testing.AllocsPerRun(5, name); got > 12 {
		t.Errorf("RegistrationName: %.0f allocs, want <= 12", got)
	}
	if got := bytesPerRun(name); got > 16<<10 {
		t.Errorf("RegistrationName: %d bytes, want <= %d", got, 16<<10)
	}
}

// TestRepeatedPointsKeyCostsTheBodyOnce: storage for the points is sized
// (one count over the body) and allocated once per body, whatever the
// "points" keys in it alternate between — not once per key, which made a
// crafted body cost its length squared.
func TestRepeatedPointsKeyCostsTheBodyOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	for _, unit := range []string{
		`"points":[[0,0]],"points":null,`,
		`"points":[[0,0]],"points":[],`,
		`"points":null,"points":[],`,
	} {
		body := []byte("{" + strings.Repeat(unit, 1<<20/len(unit)) + `"points":[[1,2]]}`)
		decode := func() {
			reg, err := DecodeRegistration(body)
			pts, merr := decodeMutation(body)
			if err != nil || merr != nil || len(reg.Points) != 1 || len(pts) != 1 {
				t.Fatalf("%s…: %d and %d points, err %v, %v", unit, len(reg.Points), len(pts), err, merr)
			}
		}
		// Two decodes, each at most one slice of 16 bytes per 6 of body.
		if got, limit := bytesPerRun(decode), uint64(2*16*len(body)/6+32<<10); got > limit {
			t.Errorf("%s…: decoding %d bytes allocated %d, want <= %d", unit, len(body), got, limit)
		}
		if got := testing.AllocsPerRun(2, decode); got > 8 {
			t.Errorf("%s…: %.0f allocs, want <= 8", unit, got)
		}
	}
}

// TestReadBodySizesFromContentLength: a declared length is read into one
// buffer sized for it, an unknown one still works, and the limit holds
// either way.
func TestReadBodySizesFromContentLength(t *testing.T) {
	payload := strings.Repeat("x", 100_000)
	for _, tc := range []struct {
		name    string
		length  int64
		limit   int64
		wantErr bool
	}{
		{"declared", int64(len(payload)), 1 << 20, false},
		{"unknown", -1, 1 << 20, false},
		{"declared over limit", int64(len(payload)), 1000, true},
		{"unknown over limit", -1, 1000, true},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(strings.NewReader(payload)))
		r.ContentLength = tc.length
		got, err := ReadBody(httptest.NewRecorder(), r, tc.limit)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && (string(got) != payload || (tc.length > 0 && cap(got) != len(payload)+bytes.MinRead)) {
			t.Errorf("%s: read %d bytes into cap %d, want %d", tc.name, len(got), cap(got), len(payload)+bytes.MinRead)
		}
	}
}

// TestReadBodyTrustsContentLengthOnlySoFar: a client that declares the
// largest body and then stalls holds maxBodyPrealloc, not the 16 MiB it
// announced; a long body that does arrive is still read whole.
func TestReadBodyTrustsContentLengthOnlySoFar(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	stalled := func() {
		r := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(strings.NewReader(`{"name":`)))
		r.ContentLength = MaxRegisterBody
		if got, err := ReadBody(httptest.NewRecorder(), r, MaxRegisterBody); err != nil || len(got) != 8 {
			t.Fatalf("read %d bytes, err %v", len(got), err)
		}
	}
	if got, limit := bytesPerRun(stalled), uint64(maxBodyPrealloc+16<<10); got > limit {
		t.Errorf("a declared %d-byte body of 8 bytes allocated %d, want <= %d", MaxRegisterBody, got, limit)
	}

	long := strings.Repeat("y", 3*maxBodyPrealloc)
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(long))
	if got, err := ReadBody(httptest.NewRecorder(), r, MaxRegisterBody); err != nil || string(got) != long {
		t.Errorf("a %d-byte body: read %d bytes, err %v", len(long), len(got), err)
	}
}

// cachedServer is a dynamic-schema server over a store with a cache
// directory, whose registry names each relation's fingerprint.
func cachedServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.New(store.Options{MaxK: 100, SampleSize: 40, GridSize: 4, IndexCapacity: 64, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st.Close(ctx)
	})
	srv := httptest.NewServer(NewWithStore(st, Options{MaxK: 100, SampleSize: 40, GridSize: 4}))
	t.Cleanup(srv.Close)
	return srv, dir
}

// registeredFingerprint reads name's fingerprint from a cache directory's
// registry.
func registeredFingerprint(t *testing.T, dir, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Relations []struct{ Name, Fingerprint string }
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	for _, rel := range reg.Relations {
		if rel.Name == name {
			return rel.Fingerprint
		}
	}
	t.Fatalf("registry in %s does not name %q: %s", dir, name, data)
	return ""
}

// TestPointsDumpRoundTrips: a points dump decodes into the wire struct
// bit-exactly (what the benchmark's oracle does) and carries the resolution
// the relation was registered at, and POSTed to a second store — through the
// one-pass decoder — reproduces the relation's fingerprint. The dump and the
// ground truth read the points from the relation's bundle: damage there is
// their error, never other points. And a dump is one generation's points and
// resolution, whatever re-registrations race it.
func TestPointsDumpRoundTrips(t *testing.T) {
	pts := inlinePoints2(500, 3)
	// Coordinates encoding/json writes in exponent form, and a negative zero.
	pts = append(pts, geom.Point{X: 1e-7, Y: -2.5e21}, geom.Point{X: math.Copysign(0, -1), Y: 1e21})
	wire := RegisterRequest{Name: "src", Points: make([][2]float64, len(pts)),
		Resolution: &ResolutionSpec{MaxK: 64, GridSize: 2, AknnCapacity: 64}}
	for i, p := range pts {
		wire.Points[i] = [2]float64{p.X, p.Y}
	}

	first, firstDir := cachedServer(t)
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := sendBody(t, http.MethodPost, first.URL+"/relations", string(body)); code != http.StatusAccepted {
		t.Fatalf("registering: %d %s", code, resp)
	}
	waitReadyHTTP(t, first.URL, "src")
	resp, err := http.Get(first.URL + "/relations/src/points")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("dump: status %d, type %q, err %v", resp.StatusCode, resp.Header.Get("Content-Type"), err)
	}

	var decoded RegisterRequest
	if err := json.Unmarshal(dump, &decoded); err != nil {
		t.Fatal(err)
	}
	res := ResolutionSpec{MaxK: 64, Corners: 1, GridSize: 2, AknnCapacity: 64} // canonical: corners 0 is 1
	if decoded.Name != "src" || len(decoded.Points) != len(pts) || decoded.Resolution == nil || *decoded.Resolution != res {
		t.Fatalf("dump decodes to name %q, %d points, resolution %+v", decoded.Name, len(decoded.Points), decoded.Resolution)
	}
	for i, p := range pts {
		if math.Float64bits(decoded.Points[i][0]) != math.Float64bits(p.X) || math.Float64bits(decoded.Points[i][1]) != math.Float64bits(p.Y) {
			t.Fatalf("point %d: dump decodes to %v, registered %v", i, decoded.Points[i], p)
		}
	}

	second, secondDir := cachedServer(t)
	if code, body := sendBody(t, http.MethodPost, second.URL+"/relations", string(dump)); code != http.StatusAccepted {
		t.Fatalf("re-registering the dump: %d %s", code, body)
	}
	waitReadyHTTP(t, second.URL, "src")
	fp := registeredFingerprint(t, secondDir, "src")
	if a := registeredFingerprint(t, firstDir, "src"); a != fp {
		t.Errorf("fingerprint %s became %s through dump and re-registration", a, fp)
	}

	// Damage to the points in the bundle the snapshot reads them from fails
	// the readers of points, not the estimates.
	bundle := filepath.Join(secondDir, "cat", fp+".knc")
	data, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatal(err)
	}
	data[400] ^= 0x04 // inside the points section, which follows a 144-byte header
	if err := os.WriteFile(bundle, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"/relations/src/points":                http.StatusInternalServerError,
		"/cost/select?rel=src&x=1&y=1&k=5":     http.StatusInternalServerError,
		"/estimate/select?rel=src&x=1&y=1&k=5": http.StatusOK,
	} {
		if code, body := sendBody(t, http.MethodGet, second.URL+path, ""); code != want {
			t.Errorf("GET %s over a damaged bundle: %d %s, want %d", path, code, body, want)
		}
	}

	// A dump takes its points and its resolution from one generation. While
	// src flips between two generations that differ in both, every dump is
	// the points of one with the resolution of the same one.
	alt := RegisterRequest{Name: "src", Points: wire.Points[:300], Resolution: &ResolutionSpec{MaxK: 32, GridSize: 3}}
	altBody, err := json.Marshal(alt)
	if err != nil {
		t.Fatal(err)
	}
	resOf := map[int]ResolutionSpec{len(pts): res}
	register := func(body []byte) {
		if code, resp := sendBody(t, http.MethodPost, first.URL+"/relations", string(body)); code != http.StatusAccepted {
			t.Errorf("re-registering: %d %s", code, resp)
		}
	}
	register(altBody)
	waitReadyHTTP(t, first.URL, "src")
	var gen2 RegisterRequest
	if err := json.Unmarshal([]byte(mustGetBody(t, first.URL+"/relations/src/points")), &gen2); err != nil || len(gen2.Points) != 300 {
		t.Fatalf("dump of the second generation: %d points, %v", len(gen2.Points), err)
	}
	resOf[300] = *gen2.Resolution
	if resOf[300] == res {
		t.Fatal("the two generations share a resolution: the check below is vacuous")
	}
	done := make(chan struct{})
	flipped := make(chan int)
	go func() {
		n := 0
		defer func() { flipped <- n }()
		for ; ; n++ {
			select {
			case <-done:
				return
			default:
			}
			register([][]byte{dump, altBody}[n%2])
			for st := ""; st != "ready"; {
				var info RelationInfo
				resp, err := http.Get(first.URL + "/relations/src/status")
				if err != nil {
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err != nil {
					return
				}
				st = info.State
			}
		}
	}()
	for i := 0; i < 300; i++ {
		var got RegisterRequest
		if err := json.Unmarshal([]byte(mustGetBody(t, first.URL+"/relations/src/points")), &got); err != nil {
			t.Fatal(err)
		}
		if want, ok := resOf[len(got.Points)]; !ok || got.Resolution == nil || *got.Resolution != want {
			t.Fatalf("dump %d: %d points with resolution %+v, not one generation's pair", i, len(got.Points), got.Resolution)
		}
	}
	close(done)
	if n := <-flipped; n < 2 {
		t.Errorf("the relation flipped %d times under the dumps, want several", n)
	}
}

// mustGetBody GETs url and returns the body of a 200.
func mustGetBody(t *testing.T, url string) string {
	t.Helper()
	code, body := sendBody(t, http.MethodGet, url, "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	return body
}

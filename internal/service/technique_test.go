package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"knncost/internal/engine"
)

// TestTechniquesEndpoint pins the GET /techniques listing against the
// engine registry: every registered technique appears, in canonical order.
func TestTechniquesEndpoint(t *testing.T) {
	srv := testServer(t)
	var out TechniquesResponse
	if code := getJSON(t, srv.URL+"/techniques", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	selNames := make([]string, len(out.Select))
	for i, ti := range out.Select {
		selNames[i] = ti.Name
		if ti.Summary == "" {
			t.Errorf("select technique %s has no summary", ti.Name)
		}
	}
	joinNames := make([]string, len(out.Join))
	for i, ti := range out.Join {
		joinNames[i] = ti.Name
	}
	if got, want := strings.Join(selNames, ","), strings.Join(engine.SelectNames(), ","); got != want {
		t.Errorf("select techniques = %s, want %s", got, want)
	}
	if got, want := strings.Join(joinNames, ","), strings.Join(engine.JoinNames(), ","); got != want {
		t.Errorf("join techniques = %s, want %s", got, want)
	}
}

// TestEstimateSelectTechniqueParam drives every registered select technique
// through ?technique=, in registered and in upper case, and checks that the
// dropped legacy spellings get the 400 that lists the registered names and
// that the dropped ?method= parameter selects nothing.
func TestEstimateSelectTechniqueParam(t *testing.T) {
	srv := testServer(t)
	canonical := map[string]float64{}
	for _, name := range engine.SelectNames() {
		var out EstimateResponse
		url := fmt.Sprintf("%s/estimate/select?rel=hotels&x=10&y=45&k=20&technique=%s", srv.URL, name)
		if code := getJSON(t, url, &out); code != http.StatusOK {
			t.Fatalf("%s: status %d (%+v)", name, code, out)
		}
		if out.Method != name {
			t.Errorf("%s: echoed method %q", name, out.Method)
		}
		canonical[name] = out.Blocks
	}
	for name, blocks := range canonical {
		var out EstimateResponse
		upper := strings.ToUpper(name)
		url := fmt.Sprintf("%s/estimate/select?rel=hotels&x=10&y=45&k=20&technique=%s", srv.URL, upper)
		if code := getJSON(t, url, &out); code != http.StatusOK {
			t.Fatalf("%s: status %d", upper, code)
		}
		if out.Blocks != blocks {
			t.Errorf("%s: %v blocks, %s gives %v", upper, out.Blocks, name, blocks)
		}
		if out.Method != upper {
			t.Errorf("%s: echoed method %q, want the client's string", upper, out.Method)
		}
	}

	// ?method= is not a parameter: alone it leaves the default technique,
	// beside technique= it changes nothing.
	var viaTech, viaMethod EstimateResponse
	getJSON(t, srv.URL+"/estimate/select?rel=hotels&x=10&y=45&k=20&technique=density&method=staircase-c", &viaTech)
	getJSON(t, srv.URL+"/estimate/select?rel=hotels&x=10&y=45&k=20&method=density", &viaMethod)
	if viaTech.Blocks != canonical[engine.TechDensity] || viaTech.Method != engine.TechDensity {
		t.Errorf("?method= beside technique=density changed the answer: %+v", viaTech)
	}
	if viaMethod.Blocks != canonical[engine.TechStaircaseCC] || viaMethod.Method != engine.TechStaircaseCC {
		t.Errorf("?method=density alone did not fall to the default technique: %+v", viaMethod)
	}

	// Unknown names — the dropped legacy spellings among them — are 400 and
	// the message lists what is registered.
	for _, name := range []string{"magic", "staircase", "staircase-center-corners", "staircase-center-only"} {
		var errOut struct {
			Error string `json:"error"`
		}
		code := getJSON(t, srv.URL+"/estimate/select?rel=hotels&x=10&y=45&k=20&technique="+name, &errOut)
		if code != http.StatusBadRequest {
			t.Fatalf("technique %s: status %d, want 400", name, code)
		}
		if !strings.Contains(errOut.Error, "unknown select method") ||
			!strings.Contains(errOut.Error, engine.TechStaircaseC) {
			t.Errorf("technique %s: error %q does not list registered names", name, errOut.Error)
		}
	}
}

// TestEstimateJoinTechniqueParam drives every registered join technique
// through ?technique= on both pair orders.
func TestEstimateJoinTechniqueParam(t *testing.T) {
	srv := testServer(t)
	for _, name := range engine.JoinNames() {
		for _, pair := range [][2]string{{"hotels", "restaurants"}, {"restaurants", "hotels"}} {
			var out EstimateResponse
			url := fmt.Sprintf("%s/estimate/join?outer=%s&inner=%s&k=15&technique=%s",
				srv.URL, pair[0], pair[1], name)
			if code := getJSON(t, url, &out); code != http.StatusOK {
				t.Fatalf("%s %s⋉%s: status %d (%+v)", name, pair[0], pair[1], code, out)
			}
			if out.Blocks <= 0 || out.Method != name {
				t.Errorf("%s %s⋉%s: response %+v", name, pair[0], pair[1], out)
			}
		}
	}

	var errOut struct {
		Error string `json:"error"`
	}
	code := getJSON(t, srv.URL+"/estimate/join?outer=hotels&inner=restaurants&k=15&technique=magic", &errOut)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown join technique: status %d", code)
	}
	if !strings.Contains(errOut.Error, "unknown join method") ||
		!strings.Contains(errOut.Error, engine.TechVirtualGrid) {
		t.Errorf("unknown join technique error %q does not list registered names", errOut.Error)
	}
}

// TestBatchSelectTechniqueField exercises the batch body's technique field:
// it selects the estimator, wins over the legacy method field, and every
// registered select technique works in a batch.
func TestBatchSelectTechniqueField(t *testing.T) {
	srv := testServer(t)
	queries := []BatchSelectQuery{{X: 10, Y: 45, K: 7}, {X: -30, Y: 51, K: 40}}
	for _, name := range engine.SelectNames() {
		var batch BatchSelectResponse
		code := postJSON(t, srv.URL+"/estimate/select/batch", BatchSelectRequest{
			Relation: "restaurants", Technique: name, Queries: queries,
		}, &batch)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		for i, q := range queries {
			var single EstimateResponse
			url := fmt.Sprintf("%s/estimate/select?rel=restaurants&x=%v&y=%v&k=%d&technique=%s",
				srv.URL, q.X, q.Y, q.K, name)
			if code := getJSON(t, url, &single); code != http.StatusOK {
				t.Fatalf("%s single %d: status %d", name, i, code)
			}
			if batch.Results[i].Blocks != single.Blocks {
				t.Errorf("%s query %d: batch %v != single %v", name, i, batch.Results[i].Blocks, single.Blocks)
			}
		}
	}

	// "method" is not a request field: it selects nothing. An unknown
	// technique — a dropped legacy spelling included — fails the whole batch.
	var out BatchSelectResponse
	code := postJSON(t, srv.URL+"/estimate/select/batch", map[string]any{
		"relation": "restaurants", "method": "density", "queries": queries,
	}, &out)
	if code != http.StatusOK || out.Method != engine.TechStaircaseCC {
		t.Errorf("batch with only a method field: status %d, method %q, want the default technique", code, out.Method)
	}
	for _, name := range []string{"magic", "staircase"} {
		var errOut struct {
			Error string `json:"error"`
		}
		code = postJSON(t, srv.URL+"/estimate/select/batch", BatchSelectRequest{
			Relation: "restaurants", Technique: name, Queries: queries,
		}, &errOut)
		if code != http.StatusBadRequest || !strings.Contains(errOut.Error, engine.TechStaircaseCC) {
			t.Errorf("batch technique %s: status %d, error %q; want 400 listing the registered names", name, code, errOut.Error)
		}
	}
}

// TestSelectRejectsNegativeK is the service-layer leg of the uniform k < 1
// contract: negative k is a 400 on the single endpoint for every technique.
func TestSelectRejectsNegativeK(t *testing.T) {
	srv := testServer(t)
	for _, name := range engine.SelectNames() {
		for _, k := range []int{0, -1, -100} {
			var errOut struct {
				Error string `json:"error"`
			}
			url := fmt.Sprintf("%s/estimate/select?rel=hotels&x=10&y=45&k=%d&technique=%s", srv.URL, k, name)
			if code := getJSON(t, url, &errOut); code != http.StatusBadRequest {
				t.Errorf("%s k=%d: status %d, want 400", name, k, code)
			}
		}
	}
}

// TestTechniqueListingsSorted pins deterministic ordering on the wire:
// GET /techniques lists names in sorted order, and the ?technique= 400 body enumerates the registered names
// sorted — registration order must never leak into any listing surface.
func TestTechniqueListingsSorted(t *testing.T) {
	srv := testServer(t)
	var out TechniquesResponse
	if code := getJSON(t, srv.URL+"/techniques", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	checkSorted := func(what string, names []string) {
		t.Helper()
		if !sort.StringsAreSorted(names) {
			t.Errorf("%s not sorted: %v", what, names)
		}
	}
	var selNames, joinNames []string
	for _, ti := range out.Select {
		selNames = append(selNames, ti.Name)
	}
	for _, ti := range out.Join {
		joinNames = append(joinNames, ti.Name)
	}
	checkSorted("select technique names", selNames)
	checkSorted("join technique names", joinNames)

	var errOut struct {
		Error string `json:"error"`
	}
	code := getJSON(t, srv.URL+"/estimate/select?rel=hotels&x=10&y=45&k=20&technique=magic", &errOut)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown technique: status %d", code)
	}
	wantList := strings.Join(engine.SelectNames(), ", ")
	if !strings.Contains(errOut.Error, wantList) {
		t.Errorf("unknown-technique 400 body %q does not list names in sorted order %q", errOut.Error, wantList)
	}
	code = getJSON(t, srv.URL+"/estimate/join?outer=hotels&inner=restaurants&k=15&technique=magic", &errOut)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown join technique: status %d", code)
	}
	wantList = strings.Join(engine.JoinNames(), ", ")
	if !strings.Contains(errOut.Error, wantList) {
		t.Errorf("unknown-join-technique 400 body %q does not list names in sorted order %q", errOut.Error, wantList)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"knncost/internal/store"
)

// mutateServer is adminServer with background compaction disabled, so the
// tests control exactly when deltas fold into the snapshot.
func mutateServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.New(store.Options{
		MaxK: 100, SampleSize: 40, GridSize: 4, IndexCapacity: 64,
		CompactInterval: -1, CompactThreshold: 1 << 20,
	})
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
	return srv, st
}

// mutate sends a POST or DELETE to /relations/{name}/points and decodes the
// JSON answer (RelationInfo on success, errorResponse on failure).
func mutate(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func waitReadyHTTP(t *testing.T, base, name string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info RelationInfo
		if code := getJSON(t, base+"/relations/"+name+"/status", &info); code == http.StatusOK && info.State == "ready" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("relation %q never became ready", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMutatePointsEndToEnd(t *testing.T) {
	srv, st := mutateServer(t)
	base := inlinePoints(300, 1)
	if code, _ := adminPost(t, srv.URL+"/relations", RegisterRequest{Name: "live", Points: base}, nil); code != http.StatusAccepted {
		t.Fatalf("register: status %d", code)
	}
	waitReadyHTTP(t, srv.URL, "live")

	// Append: the response reports the WAL-durable pending delta while the
	// published snapshot (num_points, version) is unchanged.
	var info RelationInfo
	add := [][2]float64{{1.5, 2.5}, {3.5, 4.5}, {1.5, 2.5}}
	if code := mutate(t, http.MethodPost, srv.URL+"/relations/live/points", MutateRequest{Points: add}, &info); code != http.StatusOK {
		t.Fatalf("append: status %d body %+v", code, info)
	}
	if info.DeltaOps != 1 || info.DeltaPoints != 3 || info.NumPoints != 300 || info.Version != 1 {
		t.Fatalf("append status = %+v", info)
	}

	// The points endpoint serves the LOGICAL sequence — snapshot plus
	// pending deltas — so a mirror taken mid-ingest converges.
	var dump RegisterRequest
	if code := getJSON(t, srv.URL+"/relations/live/points", &dump); code != http.StatusOK {
		t.Fatalf("points: status %d", code)
	}
	if len(dump.Points) != 303 {
		t.Fatalf("logical dump has %d points, want 303", len(dump.Points))
	}
	if dump.Points[300] != add[0] || dump.Points[302] != add[2] {
		t.Fatalf("logical dump does not end with the pending append: %v", dump.Points[300:])
	}

	// Delete removes every occurrence of the coordinate — both pending
	// copies at once.
	if code := mutate(t, http.MethodDelete, srv.URL+"/relations/live/points", MutateRequest{Points: [][2]float64{{1.5, 2.5}}}, &info); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := getJSON(t, srv.URL+"/relations/live/points", &dump); code != http.StatusOK || len(dump.Points) != 301 {
		t.Fatalf("after delete: status %d, %d points, want 301", code, len(dump.Points))
	}

	// After compaction the snapshot covers the deltas and the listing shows
	// a drained delta.
	if err := st.Flush("live"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.WaitSettled(ctx, "live"); err != nil {
		t.Fatal(err)
	}
	var listed []RelationInfo
	if code := getJSON(t, srv.URL+"/relations", &listed); code != http.StatusOK || len(listed) != 1 {
		t.Fatalf("listing: status %d rows %d", code, len(listed))
	}
	if listed[0].NumPoints != 301 || listed[0].Version != 2 || listed[0].DeltaOps != 0 {
		t.Fatalf("settled listing row = %+v", listed[0])
	}
}

func TestMutatePointsErrors(t *testing.T) {
	srv, _ := mutateServer(t)
	if code, _ := adminPost(t, srv.URL+"/relations", RegisterRequest{Name: "live", Points: inlinePoints(100, 2)}, nil); code != http.StatusAccepted {
		t.Fatalf("register: status %d", code)
	}
	waitReadyHTTP(t, srv.URL, "live")

	one := MutateRequest{Points: [][2]float64{{1, 2}}}
	var errResp errorResponse
	if code := mutate(t, http.MethodPost, srv.URL+"/relations/nope/points", one, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown relation: status %d (%s)", code, errResp.Error)
	}
	if code := mutate(t, http.MethodPost, srv.URL+"/relations/live/points", MutateRequest{}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("empty mutation: status %d", code)
	}

	// Wrong media type is refused before the body is read.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/relations/live/points", bytes.NewReader([]byte("x=1")))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("form body: status %d", resp.StatusCode)
	}

	// Malformed JSON is a 400.
	resp, err = http.Post(srv.URL+"/relations/live/points", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	// None of the rejected mutations may have left a delta behind.
	var info RelationInfo
	if code := getJSON(t, srv.URL+"/relations/live/status", &info); code != http.StatusOK || info.DeltaOps != 0 {
		t.Fatalf("rejections left deltas: status %d %+v", code, info)
	}
}

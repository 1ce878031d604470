package lookingglass

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

func historyTS(t *testing.T) *httptest.Server {
	t.Helper()
	h := HistoryHandler(
		func() int { return 10 },
		func(offset int) (any, error) {
			if offset == 7 {
				return nil, fmt.Errorf("synthetic materialization failure")
			}
			return map[string]int{"offset_seen": offset}, nil
		})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func getHistory(t *testing.T, url string) (int, HistoryResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HistoryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, hr
}

func TestHistoryHandlerOffsets(t *testing.T) {
	ts := historyTS(t)

	// Explicit offset.
	code, hr := getHistory(t, ts.URL+"?offset=3")
	if code != http.StatusOK || hr.Offset != 3 || hr.MaxOffset != 10 {
		t.Fatalf("offset=3 → %d %+v", code, hr)
	}
	if m, ok := hr.Data.(map[string]any); !ok || m["offset_seen"] != float64(3) {
		t.Fatalf("data = %+v", hr.Data)
	}

	// Omitted and -1 both mean newest.
	for _, q := range []string{"", "?offset=-1"} {
		code, hr = getHistory(t, ts.URL+q)
		if code != http.StatusOK || hr.Offset != 10 {
			t.Fatalf("%q → %d offset %d, want newest 10", q, code, hr.Offset)
		}
	}

	// Beyond the end, below -1 and non-numeric are client errors.
	for _, q := range []string{"?offset=11", "?offset=-2", "?offset=abc"} {
		if code, _ = getHistory(t, ts.URL+q); code != http.StatusBadRequest {
			t.Fatalf("%q → %d, want 400", q, code)
		}
	}

	// Materialization failure surfaces as a server error.
	if code, _ = getHistory(t, ts.URL+"?offset=7"); code != http.StatusInternalServerError {
		t.Fatalf("failing offset → %d, want 500", code)
	}
}

// A view that cannot be encoded is a server error in the unified envelope,
// not a 200 with an empty body.
func TestHistoryUnencodableViewIs500(t *testing.T) {
	h := HistoryHandler(func() int { return 1 }, func(int) (any, error) {
		return map[string]float64{"score": math.NaN()}, nil
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/history/summaries", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d body %q, want 500", rec.Code, rec.Body)
	}
	var ee ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &ee); err != nil || ee.Err.Code != http.StatusInternalServerError {
		t.Errorf("body %q is not the error envelope (err %v)", rec.Body, err)
	}
}

// WriteJSON buffers the body before writing it, in a pooled buffer: it
// allocates no more than streaming the encoder into the writer did.
func TestWriteJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	v := HistoryResponse{Offset: 3, MaxOffset: 9, Data: []RouteInfo{{Method: "GET", Pattern: "/v1/links"}}}
	w := &discardWriter{h: http.Header{}}
	streamed := testing.AllocsPerRun(100, func() {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	})
	buffered := testing.AllocsPerRun(100, func() { WriteJSON(w, http.StatusOK, v) })
	if buffered > streamed {
		t.Errorf("WriteJSON allocates %.0f times, streaming %.0f", buffered, streamed)
	}
}

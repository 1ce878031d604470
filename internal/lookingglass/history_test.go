package lookingglass

import (
	"encoding/json"
	"fmt"
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

package lookingglass

import (
	"fmt"
	"net/http"
	"strconv"
)

// HistoryResponse wraps one historical read-model query: the stream offset
// the data was materialized at, the newest offset the journal knows, and
// the rebuilt view itself.
type HistoryResponse struct {
	Offset    int `json:"offset"`
	MaxOffset int `json:"max_offset"`
	Data      any `json:"data"`
}

// HistoryHandler serves time-travel queries over a journaled read model:
// GET ?offset=N rebuilds the view as it stood after the first N journal
// records and returns it. offset omitted or -1 means the newest journaled
// offset. maxOffset reports the stream length; at materializes the view —
// typically projection.MaterializeAt over a recovered journal, which is
// O(distance to the nearest checkpoint), not O(history).
//
// The handler is read-only and idempotent; mount it unauthenticated or
// behind whatever auth the caller's registry applies. Errors use the
// unified {"error":{...}} envelope like every other /v1 endpoint.
func HistoryHandler(maxOffset func() int, at func(offset int) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		max := maxOffset()
		offset := max
		if q := r.URL.Query().Get("offset"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < -1 {
				WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad offset %q", q))
				return
			}
			if n >= 0 {
				offset = n
			}
		}
		if offset > max {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("offset %d beyond journal end %d", offset, max))
			return
		}
		data, err := at(offset)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, HistoryResponse{Offset: offset, MaxOffset: max, Data: data})
	}
}

package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Trace persistence: session workloads serialize to CSV so an experiment's
// exact inputs can be archived, diffed and inspected — the reproducibility
// counterpart of the production traces the paper's scenarios come from.
//
// Format (header + one row per session):
//
//	arrival_ms,content_id,client_group,intended_duration_ms

// traceHeader is the expected CSV header.
var traceHeader = []string{"arrival_ms", "content_id", "client_group", "intended_duration_ms"}

// WriteTrace serializes sessions to w as CSV.
func WriteTrace(w io.Writer, sessions []Session) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return fmt.Errorf("workload: write header: %w", err)
	}
	for i, s := range sessions {
		row := []string{
			strconv.FormatInt(s.Arrival.Milliseconds(), 10),
			strconv.Itoa(s.ContentID),
			s.ClientGroup,
			strconv.FormatInt(s.IntendedDuration.Milliseconds(), 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("workload: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTrace parses a CSV trace written by WriteTrace. It validates the
// header, field counts, and value ranges (non-negative times, sorted
// arrivals).
func ReadTrace(r io.Reader) ([]Session, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(traceHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: read header: %w", err)
	}
	for i, want := range traceHeader {
		if header[i] != want {
			return nil, fmt.Errorf("workload: header column %d = %q, want %q", i, header[i], want)
		}
	}
	var out []Session
	var prev time.Duration
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: row %d: %w", row, err)
		}
		arrivalMs, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil || arrivalMs < 0 {
			return nil, fmt.Errorf("workload: row %d: bad arrival %q", row, rec[0])
		}
		contentID, err := strconv.Atoi(rec[1])
		if err != nil || contentID < 0 {
			return nil, fmt.Errorf("workload: row %d: bad content id %q", row, rec[1])
		}
		durMs, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil || durMs <= 0 {
			return nil, fmt.Errorf("workload: row %d: bad duration %q", row, rec[3])
		}
		s := Session{
			Arrival:          time.Duration(arrivalMs) * time.Millisecond,
			ContentID:        contentID,
			ClientGroup:      rec[2],
			IntendedDuration: time.Duration(durMs) * time.Millisecond,
		}
		if s.Arrival < prev {
			return nil, fmt.Errorf("workload: row %d: arrivals not sorted", row)
		}
		prev = s.Arrival
		out = append(out, s)
	}
	return out, nil
}

package expt

import (
	"bytes"
	"testing"
	"time"

	"eona/internal/workload"
)

// The E1 flash-crowd workload survives the CSV trace format that
// cmd/eona-trace archives: every session reads back as generated, its
// arrival and duration truncated to the millisecond.
func TestE1TraceReplayMatchesInMemory(t *testing.T) {
	sessions := e1Workload(E1Config{Seed: 3})
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	replayed, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(sessions) || len(sessions) == 0 {
		t.Fatalf("replayed %d sessions, generated %d", len(replayed), len(sessions))
	}
	for i, s := range sessions {
		want := s
		want.Arrival = s.Arrival.Truncate(time.Millisecond)
		want.IntendedDuration = s.IntendedDuration.Truncate(time.Millisecond)
		if replayed[i] != want {
			t.Fatalf("session %d: replayed %+v, want %+v", i, replayed[i], want)
		}
	}
}

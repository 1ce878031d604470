package projection

import (
	"testing"

	"eona/internal/netsim"
)

// utilSnapshot is the k'th snapshot of a synthetic run: two links whose
// utilization depends on k, so every sample is distinguishable.
func utilSnapshot(k int) *netsim.NetState {
	return &netsim.NetState{
		Capacities: []float64{100, 200},
		LinkRates:  []float64{float64(k % 97), float64(k % 193)},
	}
}

// TestLinkUtilRetentionIsBounded folds ten retention windows of snapshots:
// the series, the folder's encoded state and therefore every checkpoint
// frame stop growing at UtilRetention points while Samples keeps counting,
// and the state stays a pure function of the folded prefix — a folder
// resumed from a checkpoint cut before the ring first wraps, or long after,
// is digest-identical to one folded from zero from then on.
func TestLinkUtilRetentionIsBounded(t *testing.T) {
	const total = 10 * UtilRetention
	cuts := map[int]*LinkUtil{UtilRetention / 2: nil, 3*UtilRetention + 7: nil}
	full := NewLinkUtil()
	var flat int
	for k := 0; k < total; k++ {
		if _, cut := cuts[k]; cut {
			resumed := NewLinkUtil()
			if err := resumed.DecodeState(full.EncodeState(nil)); err != nil {
				t.Fatalf("resume at sample %d: %v", k, err)
			}
			cuts[k] = resumed
		}
		full.FoldSnapshot(32*k, utilSnapshot(k))
		// Digests are compared on a stride coprime to the ring size (each
		// is a 10 KB encode), and always on the last sample.
		compare := k%13 == 0 || k == total-1
		var want uint64
		if compare {
			want = StateDigest(full)
		}
		for cut, resumed := range cuts {
			if resumed == nil {
				continue
			}
			resumed.FoldSnapshot(32*k, utilSnapshot(k))
			if !compare {
				continue
			}
			if got := StateDigest(resumed); got != want {
				t.Fatalf("sample %d: folder resumed at %d has digest %016x, from-zero fold %016x", k, cut, got, want)
			}
		}
		if k%UtilRetention <= 1 {
			if n := len(full.Series()); n > UtilRetention {
				t.Fatalf("sample %d: series holds %d points, retention is %d", k, n, UtilRetention)
			}
		}
		if k == UtilRetention {
			flat = len(full.EncodeState(nil))
		}
	}
	if got := full.Samples(); got != total {
		t.Fatalf("Samples() = %d after %d snapshots", got, total)
	}
	// Varints of larger op indices add at most a byte or two per point; a
	// series that grew would have added ~20 per sample.
	if n := len(full.EncodeState(nil)); n > flat+2*UtilRetention {
		t.Fatalf("encoded state grew from %d bytes at %d samples to %d at %d", flat, UtilRetention, n, total)
	}
	series := full.Series()
	if len(series) != UtilRetention {
		t.Fatalf("series holds %d points after %d samples, want %d", len(series), total, UtilRetention)
	}
	for i, pt := range series {
		if want := 32 * (total - UtilRetention + i); pt.OpIndex != want {
			t.Fatalf("series[%d].OpIndex = %d, want %d (newest %d samples, in journal order)", i, pt.OpIndex, want, UtilRetention)
		}
	}

	// A checkpoint whose point count contradicts its sample count is
	// rejected rather than seated somewhere in the ring.
	if err := NewLinkUtil().DecodeState([]byte{0, 0, 0, 0, 0, 9, 0}); err == nil {
		t.Fatal("DecodeState accepted 9 samples with 0 retained points")
	}
}

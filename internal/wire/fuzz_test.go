package wire

import (
	"testing"

	"eona/internal/core"
)

// FuzzDecode exercises the envelope decoder with arbitrary bytes: it must
// never panic, and anything it accepts must satisfy the protocol
// invariants. Run with `go test -fuzz=FuzzDecode ./internal/wire` for a
// real fuzzing session; the seed corpus runs as a normal unit test.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid envelopes of each type plus near-misses.
	if data, err := Encode(TypeAttribution, 1, core.Attribution{CDN: "cdnX"}); err == nil {
		f.Add(data)
	}
	if data, err := Encode(TypeQoESummaries, 2, []core.QoESummary{{}}); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"version":"eona/1","type":"bogus","payload":{}}`))
	f.Add([]byte(`{"version":"eona/99","type":"i2a.attribution","payload":{}}`))
	// Version skew: newer minors decode, other majors and junk do not.
	f.Add([]byte(`{"version":"eona/1.7","schema":3,"type":"i2a.attribution","payload":{}}`))
	f.Add([]byte(`{"version":"eona/1.","type":"i2a.attribution","payload":{}}`))
	f.Add([]byte(`{"version":"eona/1.x","type":"i2a.attribution","payload":{}}`))
	f.Add([]byte(`{"version":"eona/2","type":"i2a.attribution","payload":{}}`))
	// Unknown envelope fields from a newer producer are tolerated.
	f.Add([]byte(`{"version":"eona/1","type":"error","payload":{},"trace_id":"abc","hop_count":2}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return
		}
		if !versionAccepted(env.Version) {
			t.Fatalf("accepted version %q", env.Version)
		}
		if !knownTypes[env.Type] {
			t.Fatalf("accepted unknown type %q", env.Type)
		}
		// Accepted envelopes must be re-encodable via their payload.
		if _, err := Encode(env.Type, env.GeneratedAtMs, env.Payload); err != nil {
			t.Fatalf("accepted envelope failed to re-encode: %v", err)
		}
	})
}

package wire

import "testing"

// FuzzDecode exercises the envelope decoder with arbitrary bytes: it must
// never panic, and anything it accepts must satisfy the protocol
// invariants. Run with `go test -fuzz=FuzzDecode ./internal/wire` for a
// real fuzzing session; the seed corpus runs as a normal unit test.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid envelopes of each type, near-misses, and every
	// parity case the encoding/json differential covers.
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}

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

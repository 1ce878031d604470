package wire

import (
	"encoding/json"
	"errors"
	"testing"

	"eona/internal/core"
)

func TestVersionAccepted(t *testing.T) {
	accept := []string{"eona/1", "eona/1.0", "eona/1.7", "eona/1.42"}
	reject := []string{"", "eona/2", "eona/2.1", "eona/1.", "eona/1.x", "eona/1.7.2", "eona/10", "EONA/1", "eona/1 "}
	for _, v := range accept {
		if !versionAccepted(v) {
			t.Errorf("versionAccepted(%q) = false", v)
		}
	}
	for _, v := range reject {
		if versionAccepted(v) {
			t.Errorf("versionAccepted(%q) = true", v)
		}
	}
}

// TestDecodeVersionSkew round-trips a payload through envelopes stamped by
// a hypothetical newer minor-revision producer: higher minor version,
// explicit schema revision, and envelope fields this implementation has
// never heard of. All must decode to the same payload; a new major must
// still be refused.
func TestDecodeVersionSkew(t *testing.T) {
	att := core.Attribution{CDN: "cdnX", SuggestedCapBps: 2e6}
	payload, err := json.Marshal(att)
	if err != nil {
		t.Fatal(err)
	}

	type futureEnvelope struct {
		Version       string          `json:"version"`
		Type          MessageType     `json:"type"`
		Schema        int             `json:"schema,omitempty"`
		GeneratedAtMs int64           `json:"generated_at_ms"`
		Payload       json.RawMessage `json:"payload"`
		TraceID       string          `json:"trace_id,omitempty"` // not in our Envelope
	}
	cases := []struct {
		name   string
		env    futureEnvelope
		schema int
	}{
		{"current", futureEnvelope{Version: "eona/1", Type: TypeAttribution, GeneratedAtMs: 5, Payload: payload}, 0},
		{"newer-minor", futureEnvelope{Version: "eona/1.7", Type: TypeAttribution, Schema: 7, GeneratedAtMs: 5, Payload: payload}, 7},
		{"newer-minor-extra-fields", futureEnvelope{Version: "eona/1.2", Type: TypeAttribution, Schema: 2, GeneratedAtMs: 5, Payload: payload, TraceID: "t-1"}, 2},
	}
	for _, tc := range cases {
		data, err := json.Marshal(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		env, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if env.Schema != tc.schema {
			t.Errorf("%s: schema = %d, want %d", tc.name, env.Schema, tc.schema)
		}
		got, err := DecodePayload[core.Attribution](env, TypeAttribution)
		if err != nil {
			t.Fatalf("%s: payload: %v", tc.name, err)
		}
		if got != att {
			t.Errorf("%s: payload = %+v, want %+v", tc.name, got, att)
		}
	}

	next, _ := json.Marshal(futureEnvelope{Version: "eona/2", Type: TypeAttribution, GeneratedAtMs: 5, Payload: payload})
	if _, err := Decode(next); !errors.Is(err, ErrVersion) {
		t.Errorf("major bump: err = %v, want ErrVersion", err)
	}
}

// TestEncodeStaysLegacyShape pins that our own producer still emits the
// original envelope (version "eona/1", no schema field) — consumers at the
// previous release decode it unchanged.
func TestEncodeStaysLegacyShape(t *testing.T) {
	data, err := Encode(TypeAttribution, 1, core.Attribution{CDN: "cdnX"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["version"]) != `"eona/1"` {
		t.Errorf("version on wire = %s", m["version"])
	}
	if _, present := m["schema"]; present {
		t.Error("schema field emitted for the legacy revision; omitempty contract broken")
	}
}

package wire

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"eona/internal/core"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []core.QoESummary{{
		Key:       core.SummaryKey{ClientISP: "isp1", CDN: "cdnX", Cluster: "east"},
		Sessions:  42,
		MeanScore: 77.5,
	}}
	data, err := Encode(TypeQoESummaries, 12345, in)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != Version || env.Type != TypeQoESummaries || env.GeneratedAtMs != 12345 {
		t.Errorf("envelope = %+v", env)
	}
	out, err := DecodePayload[[]core.QoESummary](env, TypeQoESummaries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(MessageType("bogus"), 0, nil); !errors.Is(err, ErrType) {
		t.Errorf("err = %v, want ErrType", err)
	}
}

func TestEncodeUnmarshalablePayload(t *testing.T) {
	if _, err := Encode(TypeAttribution, 0, make(chan int)); err == nil {
		t.Error("channel payload should fail to marshal")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	data, _ := Encode(TypeAttribution, 0, core.Attribution{})
	tampered := strings.Replace(string(data), Version, "eona/99", 1)
	if _, err := Decode([]byte(tampered)); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	raw, _ := json.Marshal(Envelope{Version: Version, Type: "nope", Payload: []byte("{}")})
	if _, err := Decode(raw); !errors.Is(err, ErrType) {
		t.Errorf("err = %v, want ErrType", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestDecodePayloadTypeMismatch(t *testing.T) {
	data, _ := Encode(TypePeeringInfo, 0, []core.PeeringInfo{})
	env, _ := Decode(data)
	if _, err := DecodePayload[[]core.QoESummary](env, TypeQoESummaries); !errors.Is(err, ErrType) {
		t.Errorf("err = %v, want ErrType", err)
	}
}

func TestDecodePayloadMalformed(t *testing.T) {
	env := Envelope{Version: Version, Type: TypeAttribution, Payload: []byte(`{"segment": "not an int"`)}
	if _, err := DecodePayload[core.Attribution](env, TypeAttribution); err == nil {
		t.Error("malformed payload accepted")
	}
}

func TestForwardCompatibleUnknownPayloadFields(t *testing.T) {
	// A newer peer may add payload fields; decoding must ignore them.
	raw := `{"version":"eona/1","type":"i2a.attribution","generated_at_ms":1,` +
		`"payload":{"cdn":"cdnX","segment":1,"level":2,"suggested_cap_bps":1000,"future_field":"x"}}`
	env, err := Decode([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	att, err := DecodePayload[core.Attribution](env, TypeAttribution)
	if err != nil {
		t.Fatal(err)
	}
	if att.CDN != "cdnX" || att.Segment != core.SegmentAccess || att.SuggestedCapBps != 1000 {
		t.Errorf("attribution = %+v", att)
	}
}

// Property: Decode never panics and never returns both a valid envelope
// and an error, no matter the input bytes.
func TestQuickDecodeRobustness(t *testing.T) {
	f := func(data []byte) bool {
		env, err := Decode(data)
		if err != nil {
			return true
		}
		return env.Version == Version && knownTypes[env.Type]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Encode/Decode round-trips any attribution payload.
func TestQuickAttributionRoundTrip(t *testing.T) {
	f := func(seg uint8, cap float64, cdnName string) bool {
		if math.IsNaN(cap) || math.IsInf(cap, 0) {
			return true // JSON numbers cannot carry these
		}
		in := core.Attribution{
			CDN:             cdnName,
			Segment:         core.BottleneckSegment(seg % 4),
			SuggestedCapBps: cap,
		}
		data, err := Encode(TypeAttribution, 0, in)
		if err != nil {
			return false
		}
		env, err := Decode(data)
		if err != nil {
			return false
		}
		out, err := DecodePayload[core.Attribution](env, TypeAttribution)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

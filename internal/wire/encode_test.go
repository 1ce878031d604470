package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"eona/internal/core"
	"eona/internal/netsim"
)

// encodeTwice is the two-marshal encoder Encode replaced, kept as the oracle
// for its bytes: marshal the payload, then marshal the Envelope around it.
func encodeTwice(t MessageType, generatedAtMs int64, payload any) ([]byte, error) {
	if !knownTypes[t] {
		return nil, fmt.Errorf("%w: %q", ErrType, t)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal payload: %w", err)
	}
	return json.Marshal(Envelope{
		Version:       Version,
		Type:          t,
		GeneratedAtMs: generatedAtMs,
		Payload:       raw,
	})
}

// requireSameEncoding fails unless Encode and the oracle agree: the same
// bytes, or both an error. On success the raw span AppendEncode returns must
// be exactly json.Marshal(payload) — the bytes the ETag hashes — and must sit
// inside the message.
func requireSameEncoding(t *testing.T, name string, typ MessageType, at int64, payload any) {
	t.Helper()
	want, werr := encodeTwice(typ, at, payload)
	got, gerr := Encode(typ, at, payload)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: oracle err = %v, Encode err = %v", name, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from the two-marshal oracle\n got: %q\nwant: %q", name, got, want)
	}
	prefix := []byte("prefix")
	msg, raw, err := AppendEncode(prefix[:len(prefix):len(prefix)], typ, at, payload)
	if err != nil {
		t.Fatalf("%s: AppendEncode: %v", name, err)
	}
	if !bytes.Equal(msg, append(prefix, want...)) {
		t.Fatalf("%s: AppendEncode did not append the envelope to dst: %q", name, msg)
	}
	marshalled, _ := json.Marshal(payload)
	if !bytes.Equal(raw, marshalled) {
		t.Fatalf("%s: raw = %q, want json.Marshal(payload) = %q", name, raw, marshalled)
	}
	if &raw[len(raw)-1] != &msg[len(msg)-2] {
		t.Fatalf("%s: raw is not the payload span inside msg", name)
	}
	// Re-wrapping the payload span reproduces the message: a server that
	// keeps raw serves the same bytes without marshalling again.
	wrapped, err := AppendWrap(prefix[:len(prefix):len(prefix)], typ, at, raw)
	if err != nil || !bytes.Equal(wrapped, msg) {
		t.Fatalf("%s: AppendWrap = %q (err %v), want %q", name, wrapped, err, msg)
	}
}

// encodeEscapes holds a string every escaping rule of appendString applies
// to, and encodeFloatEdges the floats on each side of the 'f'/'e' switch.
const encodeEscapes = "<script>&amp;</script> \u2028\u2029 \x00\x01\x1f\t\n\"\\ bad\xff\xfeutf8 é 日本"

var encodeFloatEdges = []float64{1e-7, 1e21, math.Copysign(0, -1), 5e-324, 1e20, 1e-6, math.MaxFloat64, -1e-7}

func TestEncodeMatchesMarshal(t *testing.T) {
	sum := func(s string, x float64) core.QoESummary {
		return core.QoESummary{
			Key:      core.SummaryKey{ClientISP: s, CDN: "cdn" + s, Cluster: s + "-east"},
			Sessions: x, MeanScore: -x, MeanBufferingRatio: x / 3,
			MeanBitrateBps: x * 1e6, MeanStartupSec: 1 / (1 + math.Abs(x)), AbandonmentRate: x,
		}
	}
	var floatEdges []core.QoESummary
	for i, x := range encodeFloatEdges {
		floatEdges = append(floatEdges, sum(string(rune('a'+i)), x))
	}
	cases := []struct {
		name    string
		typ     MessageType
		payload any
	}{
		{"summaries", TypeQoESummaries, []core.QoESummary{sum("isp1", 42), sum("isp2", 0.5)}},
		{"traffic", TypeTrafficEstimates, []core.TrafficEstimate{{AppP: "vod", CDN: "cdnX", VolumeBps: 5e8, Sessions: 10}}},
		{"peering", TypePeeringInfo, []core.PeeringInfo{
			{PeeringID: "B", CDN: "cdnX", Congestion: netsim.CongestionHigh, HeadroomBps: 1e6, CapacityBps: 1e8, Current: true},
			{PeeringID: "C", CDN: "cdnY", Congestion: netsim.CongestionNone, HeadroomBps: 4e8, CapacityBps: 5e8},
		}},
		{"attribution", TypeAttribution, core.Attribution{CDN: "cdnX", Segment: core.SegmentAccess, Level: netsim.CongestionSevere, SuggestedCapBps: 1.5e6}},
		{"hints", TypeServerHints, []core.ServerHint{{ServerID: "east-s01", Cluster: "east", Load: 0.4, CacheLikely: true}}},
		{"raw-message", TypeAttribution, json.RawMessage(" { \"cdn\" : \"<x>\",\n\t\"segment\": 1 } ")},
		{"raw-message-nil", TypeAttribution, json.RawMessage(nil)},
		{"raw-message-invalid", TypeAttribution, json.RawMessage(`{"cdn":`)},
		{"nil-payload", TypeAttribution, nil},
		{"nil-slice", TypeQoESummaries, []core.QoESummary(nil)},
		{"empty-slice", TypeQoESummaries, []core.QoESummary{}},
		{"escaping", TypeQoESummaries, []core.QoESummary{sum(encodeEscapes, 1)}},
		{"float-edges", TypeQoESummaries, floatEdges},
		{"unsupported-nan", TypeQoESummaries, []core.QoESummary{sum("x", math.NaN())}},
		{"unsupported-inf", TypePeeringInfo, []core.PeeringInfo{{HeadroomBps: math.Inf(1)}}},
		{"unsupported-chan", TypeAttribution, make(chan int)},
		{"unknown-type", MessageType("bogus"), core.Attribution{}},
	}
	for _, tc := range cases {
		for _, at := range []int64{0, 1_700_000_000_123, -5} {
			requireSameEncoding(t, tc.name, tc.typ, at, tc.payload)
		}
	}
}

// FuzzEncodeMatchesMarshal feeds arbitrary strings and floats through both
// encoders, as summaries and as traffic estimates, whole payloads and one
// element at a time; unsupported floats (NaN, ±Inf) must fail on both sides.
// Run with `go test -fuzz=FuzzEncodeMatchesMarshal ./internal/wire`.
func FuzzEncodeMatchesMarshal(f *testing.F) {
	f.Add("isp1", "cdnX", 42.0, 77.5, int64(12345))
	f.Add("<&>\u2028", "\xff\x00", 1e21, 1e-7, int64(-1))
	f.Add("", "", math.Copysign(0, -1), 5e-324, int64(0))
	f.Add("nan", "inf", math.NaN(), math.Inf(-1), int64(1))
	for i, x := range encodeFloatEdges {
		f.Add(encodeEscapes, encodeEscapes[i:], x, -x, int64(i))
	}
	f.Fuzz(func(t *testing.T, isp, cdn string, a, b float64, at int64) {
		summaries := []core.QoESummary{
			{Key: core.SummaryKey{ClientISP: isp, CDN: cdn, Cluster: isp + cdn}, Sessions: a, MeanScore: b},
			{Key: core.SummaryKey{ClientISP: cdn}, MeanBitrateBps: a * b, AbandonmentRate: b},
		}
		traffic := []core.TrafficEstimate{
			{AppP: isp, CDN: cdn, VolumeBps: a, Sessions: b},
			{AppP: cdn + isp, VolumeBps: b / 3, Sessions: a * b},
		}
		requireSameEncoding(t, "fuzz summaries", TypeQoESummaries, at, summaries)
		requireSameEncoding(t, "fuzz traffic", TypeTrafficEstimates, at, traffic)
		for i := range summaries {
			requireSameElement(t, &summaries[i], AppendSummary)
		}
		for i := range traffic {
			requireSameElement(t, &traffic[i], AppendTraffic)
		}
	})
}

// requireSameElement fails unless appending e after a prefix writes
// json.Marshal(e) there, or both fail and the prefix comes back unchanged.
func requireSameElement[E any](t *testing.T, e *E, appendElem func([]byte, *E) ([]byte, error)) {
	t.Helper()
	want, werr := json.Marshal(e)
	prefix := []byte("prefix")
	got, gerr := appendElem(prefix[:len(prefix):len(prefix)], e)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%+v: json.Marshal err = %v, appender err = %v", *e, werr, gerr)
	}
	if werr != nil {
		want = nil
	}
	if !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("%+v: appender wrote %q, want %q after the prefix", *e, got, want)
	}
}

package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eona/internal/core"
)

// decodeOracle is the encoding/json decode Decode replaced, kept as the
// oracle for its results: json.Unmarshal into Envelope, then the same
// version and type checks.
func decodeOracle(data []byte) (Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Envelope{}, fmt.Errorf("wire: malformed envelope: %w", err)
	}
	if !versionAccepted(env.Version) {
		return Envelope{}, fmt.Errorf("%w: %q", ErrVersion, env.Version)
	}
	if !knownTypes[env.Type] {
		return Envelope{}, fmt.Errorf("%w: %q", ErrType, env.Type)
	}
	return env, nil
}

// payloadOracle is the encoding/json DecodePayload, the oracle for the
// hand-written A2I payload decoder.
func payloadOracle[T any](env Envelope, want MessageType) (T, error) {
	var v T
	if env.Type != want {
		return v, fmt.Errorf("%w: have %q, want %q", ErrType, env.Type, want)
	}
	if err := json.Unmarshal(env.Payload, &v); err != nil {
		return v, fmt.Errorf("wire: payload for %q: %w", want, err)
	}
	return v, nil
}

// errClass names what a caller can tell apart about a decode error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrVersion):
		return "version"
	case errors.Is(err, ErrType):
		return "type"
	case strings.HasPrefix(err.Error(), "wire: malformed envelope: "):
		return "malformed envelope"
	case strings.HasPrefix(err.Error(), "wire: payload for "):
		return "malformed payload"
	}
	return "other: " + err.Error()
}

// requireSameDecode fails unless got and the oracle's want agree on the
// error class and, when both accept, on the value.
func requireSameDecode[T any](t *testing.T, what string, data []byte, got T, gerr error, want T, werr error) {
	t.Helper()
	if len(data) > 200 {
		data = append(data[:200:200], "..."...)
	}
	if gc, wc := errClass(gerr), errClass(werr); gc != wc {
		t.Fatalf("%s %q: decode %s (%v), encoding/json %s (%v)", what, data, gc, gerr, wc, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q:\n decode: %#v\n   json: %#v", what, data, got, want)
	}
}

// requireSamePayload decodes payload as T both ways.
func requireSamePayload[T any](t *testing.T, typ MessageType, payload []byte) {
	t.Helper()
	env := Envelope{Version: Version, Type: typ, Payload: payload}
	got, gerr := DecodePayload[T](env, typ)
	want, werr := payloadOracle[T](env, typ)
	requireSameDecode(t, string(typ), payload, got, gerr, want, werr)
}

// requireSameAsUnmarshal checks Decode against decodeOracle on data, and the
// A2I payload decoders against encoding/json on data itself and on the
// payload of an accepted envelope.
func requireSameAsUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := Decode(data)
	want, werr := decodeOracle(data)
	requireSameDecode(t, "envelope", data, got, gerr, want, werr)
	payloads := [][]byte{data}
	if gerr == nil {
		payloads = append(payloads, got.Payload)
	}
	for _, p := range payloads {
		requireSamePayload[[]core.QoESummary](t, TypeQoESummaries, p)
		requireSamePayload[[]core.TrafficEstimate](t, TypeTrafficEstimates, p)
	}
}

// envelopeWith wraps payload, raw JSON, in a current summaries envelope.
func envelopeWith(payload string) string {
	return `{"version":"eona/1","type":"a2i.qoe_summaries","generated_at_ms":7,"payload":` + payload + `}`
}

// decodeSeeds are the inputs on which the decoders must match encoding/json:
// each parity rule, from both sides of its edge, as envelopes and as A2I
// payloads.
func decodeSeeds() []string {
	full := []core.QoESummary{{
		Key:      core.SummaryKey{ClientISP: "isp-1", CDN: "cdnX", Cluster: "east"},
		Sessions: 12, MeanScore: 71.25, MeanBufferingRatio: 0.015,
		MeanBitrateBps: 2.5e6, MeanStartupSec: 0.9, AbandonmentRate: 1.0 / 3,
	}, {}}
	summaries, _ := Encode(TypeQoESummaries, 1_700_000_000_123, full)
	traffic, _ := Encode(TypeTrafficEstimates, 3, []core.TrafficEstimate{{AppP: "vod", CDN: "cdnX", VolumeBps: 5e8, Sessions: 10}})
	attribution, _ := Encode(TypeAttribution, 1, core.Attribution{CDN: "cdnX"})
	seeds := []string{
		string(summaries), string(traffic), string(attribution),
		// Version skew: newer minors decode, other majors and junk do not.
		`{"version":"eona/1","type":"bogus","payload":{}}`,
		`{"version":"eona/99","type":"i2a.attribution","payload":{}}`,
		`{"version":"eona/1.7","schema":3,"type":"i2a.attribution","payload":{}}`,
		`{"version":"eona/1.","type":"i2a.attribution","payload":{}}`,
		`{"version":"eona/1.x","type":"i2a.attribution","payload":{}}`,
		`{"version":"eona/2","type":"i2a.attribution","payload":{}}`,
		// Unknown envelope fields from a newer producer are tolerated.
		`{"version":"eona/1","type":"i2a.attribution","payload":{},"trace_id":"abc","hop_count":2}`,
		`{"trace":{"a":[1,{"b":null}],"c":"\u00e9"},"version":"eona/1","type":"i2a.attribution","payload":0}`,
		// Keys: exact, escaped, folded (ASCII and non-ASCII), duplicated.
		`{"VERSION":"eona/1","Type":"i2a.attribution","payload":1}`,
		`{"vers\u0069on":"eona/1","type":"i2a.attribution","payload":1}`,
		`{"version":"eona/2","version":"eona/1","type":"i2a.attribution","payload":1}`,
		`{"version":"eona/1","type":"i2a.attribution","payload":1,"payload":[2]}`,
		`{"version":"eona/1","type":"i2a.attribution","payload":1,"type":"bogus"}`,
		`[{"ſessions":3,"\u212Aey":{"CDN":"x","clu\u017fter":"y"}}]`,
		`[{"\u017fessions":3,"\u212aey":{"cdn":"x"}}]`,
		`[{"sessionſ":3,"key":{"cdnK":"x"}}]`,
		`[{"key":{"cdn":"a"},"key":{"cluster":"b"}},{"key":{"cdn":"a"},"key":null}]`,
		`[{"sessions":1,"sessions":2,"SESSIONS":3}]`,
		`[{"appp":"vod","APPP":"live","cdn":"c","volume_bps":1e3,"Volume_Bps":2e3}]`,
		"[{\"sessions\":1,\"x\xffy\":2,\"\xff\":3,\"\xc5\xbfessions\":4}]",
		// null: unchanged field, zero element, nil payload, empty envelope.
		`[{"sessions":null,"key":null,"mean_score":null},null,{"key":{"cdn":null}}]`,
		`[null]`, `null`, ` null `, `[]`, ` [ ] `, `{}`, `nul`, `nullx`,
		envelopeWith(`null`), envelopeWith(`[]`), envelopeWith(`[null]`),
		`{"version":null,"type":null,"schema":null,"generated_at_ms":null,"payload":null}`,
		`{"version":"eona/1","type":"i2a.attribution","payload":1,"version":null}`,
		// The whitespace inside the payload is kept.
		envelopeWith(`[ 1 , 2 ]`), envelopeWith(" [ {\n\t\"sessions\" : 1 } ] "),
		// Type mismatches.
		`[{"sessions":"1"}]`, `[{"sessions":true}]`, `[{"sessions":{}}]`, `[{"sessions":[]}]`,
		`[{"key":"k"}]`, `[{"key":[]}]`, `[{"key":5}]`, `[{"key":{"cdn":5}}]`, `[{"key":{"cdn":true}}]`,
		`[1]`, `["x"]`, `[true]`, `[[]]`, `{"sessions":1}`, `"x"`, `5`, `true`,
		`{"version":5,"type":"i2a.attribution","payload":1}`, `{"version":"eona/1","type":["i2a.attribution"],"payload":1}`,
		`[]x`, `["x"]`, `[1,2]`,
		// Numbers: float range, integer fields.
		`[{"sessions":1e400}]`, `[{"sessions":-1e400}]`, `[{"sessions":1e-400}]`, `[{"sessions":-0}]`,
		`[{"volume_bps":1.7976931348623157e308,"sessions":5e-324}]`,
		`[{"sessions":01}]`, `[{"sessions":1.}]`, `[{"sessions":.5}]`, `[{"sessions":1e}]`, `[{"sessions":-}]`, `[{"sessions":+1}]`,
		`{"version":"eona/1","type":"i2a.attribution","schema":1.0,"payload":1}`,
		`{"version":"eona/1","type":"i2a.attribution","schema":1e2,"payload":1}`,
		`{"version":"eona/1","type":"i2a.attribution","schema":-3,"payload":1}`,
		`{"version":"eona/1","type":"i2a.attribution","generated_at_ms":9223372036854775807,"payload":1}`,
		`{"version":"eona/1","type":"i2a.attribution","generated_at_ms":9223372036854775808,"payload":1}`,
		`{"version":"eona/1","type":"i2a.attribution","generated_at_ms":-9223372036854775809,"payload":1}`,
		`{"version":"eona/1","type":"i2a.attribution","generated_at_ms":"5","payload":1}`,
		// Strings: escapes, invalid UTF-8, surrogates, control characters.
		`[{"key":{"cdn":"a\"\\\/\b\f\n\r\tz","cluster":"\u00e9\u65e5\uD83D\uDE00"}}]`,
		"[{\"key\":{\"cdn\":\"bad\xff\xfeutf8\",\"cluster\":\"\xed\xa0\x80\",\"client_isp\":\"\xf0\x9f\x98\"}}]",
		"[{\"key\":{\"cdn\":\"\xe6\x97\xa5\xff\\n\",\"cluster\":\"\xc3\xa9\"}}]",
		`[{"key":{"cdn":"\ud800","cluster":"\udc00x","client_isp":"\ud800\u0041"}}]`,
		`[{"key":{"cdn":"\ud83d\ud83d\ude00","cluster":"\uDBFF\uDFFF","client_isp":"\uFFFD"}}]`,
		`[{"key":{"cdn":"\ud800\"}}]`, `[{"key":{"cdn":"\u12"}}]`, `[{"key":{"cdn":"\x"}}]`,
		"[{\"key\":{\"cdn\":\"tab\there\"}}]", "[{\"key\":{\"cdn\":\"nul\x00\"}}]", "[{\"key\":{\"cdn\":\"del\x7f\"}}]",
		// Syntax: trailing bytes, truncation, stray separators.
		`{"version":"eona/1","type":"i2a.attribution","payload":1} x`, `{"version":"eona/1","type":"i2a.attribution","payload":1}` + " \n\t\r",
		`{"version":"eona/1","type":"i2a.attribution","payload":1}{}`,
		`{"version":"eona/1","type":"i2a.attribution","payload":1,}`, `{"version":"eona/1" "type":"i2a.attribution"}`,
		`[{"sessions":1},]`, `[{"sessions":1}}`, `[{"sessions" 1}]`, `[{,}]`, `[,]`, `[{"a":[}]`,
		`{`, ``, ` `, `[`, `{"version"`, "\xef\xbb\xbf[]",
	}
	if n := len(summaries); n > 1 {
		seeds = append(seeds, string(summaries[:n/2]), string(summaries[:n-1]))
	}
	// Nesting: exactly encoding/json's limit of 10 000 open containers, and
	// one more, in the envelope, in a payload and under a skipped field.
	nest := func(prefix, open, close, suffix string, depth int) string {
		return prefix + strings.Repeat(open, depth) + strings.Repeat(close, depth) + suffix
	}
	for _, d := range []int{maxDepth - 1, maxDepth} {
		seeds = append(seeds,
			nest(`{"version":"eona/1","type":"i2a.attribution","payload":`, "[", "]", "}", d),
			nest(`{"version":"eona/1","type":"i2a.attribution","payload":0,"x":`, `{"a":`, "}", "}", d),
			nest(`[{"trace":`, "[", "]", "}]", d-1),
			nest(`[{"key":{"trace":`, "[", "]", "}}]", d-2),
		)
	}
	seeds = append(seeds, nest("", "[", "]", "", maxDepth), nest("", "[", "]", "", maxDepth+1))
	return seeds
}

// FuzzDecodeMatchesUnmarshal holds the hand-written decoder to encoding/json
// on arbitrary bytes: the same accept or reject, the same error class, and
// deeply equal results. The seeds run as a unit test; explore past them with
// `go test -run '^$' -fuzz '^FuzzDecodeMatchesUnmarshal$' ./internal/wire`.
func FuzzDecodeMatchesUnmarshal(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(requireSameAsUnmarshal)
}

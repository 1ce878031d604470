// Package wire defines the EONA exchange format: a small, versioned JSON
// envelope around typed payloads. The paper leaves format standardization
// to "some standard body (e.g., IETF)" (§4); this package is the concrete
// binding this implementation speaks — explicit version string, explicit
// message type, ISO-agnostic millisecond timestamps, and strict decoding
// (unknown versions and mismatched types are errors, unknown fields inside
// payloads are ignored for forward compatibility).
//
// The two A2I payloads, []core.QoESummary and []core.TrafficEstimate, are
// what partners poll continuously, and both directions of them skip
// reflection: encoding is a hand-written appender per element (write.go)
// that writes json.Marshal's bytes, and decoding, of the envelope too, is a
// single-pass reader (read.go) that gives json.Unmarshal's results on every
// input. The I2A payloads, a few hundred bytes each, stay on encoding/json
// both ways.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"eona/internal/core"
)

// Version is the protocol version this implementation speaks.
const Version = "eona/1"

// versionAccepted reports whether v names a protocol this implementation
// can decode: the same major version at any minor revision ("eona/1",
// "eona/1.7"). Minor revisions only add fields — which payload decoding
// already ignores — so refusing them would break rolling upgrades where
// one side deploys first. A different major ("eona/2") is still rejected.
func versionAccepted(v string) bool {
	if v == Version {
		return true
	}
	minor, ok := strings.CutPrefix(v, Version+".")
	if !ok || minor == "" {
		return false
	}
	for i := 0; i < len(minor); i++ {
		if minor[i] < '0' || minor[i] > '9' {
			return false
		}
	}
	return true
}

// MessageType tags the payload inside an envelope.
type MessageType string

// The message types of the EONA interfaces.
const (
	// TypeQoESummaries carries []core.QoESummary (A2I).
	TypeQoESummaries MessageType = "a2i.qoe_summaries"
	// TypeTrafficEstimates carries []core.TrafficEstimate (A2I).
	TypeTrafficEstimates MessageType = "a2i.traffic_estimates"
	// TypePeeringInfo carries []core.PeeringInfo (I2A).
	TypePeeringInfo MessageType = "i2a.peering_info"
	// TypeAttribution carries core.Attribution (I2A).
	TypeAttribution MessageType = "i2a.attribution"
	// TypeServerHints carries []core.ServerHint (I2A).
	TypeServerHints MessageType = "i2a.server_hints"
)

var knownTypes = map[MessageType]bool{
	TypeQoESummaries:     true,
	TypeTrafficEstimates: true,
	TypePeeringInfo:      true,
	TypeAttribution:      true,
	TypeServerHints:      true,
}

// Envelope is the outer message framing. Decoding tolerates unknown
// envelope fields (a newer minor revision may add some), an absent Schema,
// and any same-major Version string.
type Envelope struct {
	Version string      `json:"version"`
	Type    MessageType `json:"type"`
	// Schema is the envelope's minor schema revision. Absent on the wire
	// (0) means the original revision 1; decoders never reject a newer
	// value, since minor revisions only add fields.
	Schema int `json:"schema,omitempty"`
	// GeneratedAtMs is the producer's clock (virtual or wall) in
	// milliseconds — consumers use it to judge staleness.
	GeneratedAtMs int64           `json:"generated_at_ms"`
	Payload       json.RawMessage `json:"payload"`
}

// Encoding and decoding errors.
var (
	ErrVersion = errors.New("wire: unsupported protocol version")
	ErrType    = errors.New("wire: unknown or mismatched message type")
)

// Encode returns payload wrapped in a versioned envelope: AppendEncode into
// a fresh buffer.
func Encode(t MessageType, generatedAtMs int64, payload any) ([]byte, error) {
	msg, _, err := AppendEncode(nil, t, generatedAtMs, payload)
	return msg, err
}

// AppendEncode appends payload, wrapped in a versioned envelope, to dst. It
// returns the extended buffer and raw, the payload's JSON inside it. The
// payload is marshalled exactly once, straight after the envelope's fixed
// fields: the A2I payloads, []core.QoESummary and []core.TrafficEstimate, by
// the appenders in write.go, every other payload by encoding/json. The bytes
// are those encoding/json emits for the whole Envelope: its pass over a
// RawMessage payload only re-compacts, and a marshalled payload is already
// compact and HTML-escaped. On error it returns dst unchanged.
func AppendEncode(dst []byte, t MessageType, generatedAtMs int64, payload any) (msg, raw []byte, err error) {
	return AppendEnvelope(dst, t, generatedAtMs, func(b []byte) ([]byte, error) {
		switch p := payload.(type) {
		case []core.QoESummary:
			return AppendList(b, p, func(b []byte, i int) ([]byte, error) { return AppendSummary(b, &p[i]) })
		case []core.TrafficEstimate:
			return AppendList(b, p, func(b []byte, i int) ([]byte, error) { return AppendTraffic(b, &p[i]) })
		}
		buf := bytes.NewBuffer(b)
		if err := json.NewEncoder(buf).Encode(payload); err != nil {
			return b, err
		}
		// The encoder ends each value with a newline; drop it.
		b = buf.Bytes()
		return b[:len(b)-1], nil
	})
}

// AppendEnvelope appends a versioned envelope of type t to dst, with
// appendPayload appending the payload's JSON after the fixed fields. It
// returns the extended buffer and raw, the payload inside it. On error it
// returns dst unchanged.
func AppendEnvelope(dst []byte, t MessageType, generatedAtMs int64, appendPayload func(b []byte) ([]byte, error)) (msg, raw []byte, err error) {
	msg, err = appendHead(dst, t, generatedAtMs)
	if err != nil {
		return dst, nil, err
	}
	start := len(msg)
	if msg, err = appendPayload(msg); err != nil {
		return dst, nil, fmt.Errorf("wire: marshal payload: %w", err)
	}
	end := len(msg)
	msg = append(msg, '}')
	return msg, msg[start:end:end], nil
}

// AppendWrap appends raw, a payload as AppendEncode returned it, wrapped in
// a fresh envelope: the bytes AppendEncode would append for the payload raw
// was encoded from. On error it returns dst unchanged.
func AppendWrap(dst []byte, t MessageType, generatedAtMs int64, raw []byte) ([]byte, error) {
	msg, err := appendHead(dst, t, generatedAtMs)
	if err != nil {
		return dst, err
	}
	msg = append(msg, raw...)
	return append(msg, '}'), nil
}

// appendHead appends an envelope's fixed fields, up to the payload's first
// byte.
func appendHead(dst []byte, t MessageType, generatedAtMs int64) ([]byte, error) {
	if !knownTypes[t] {
		return dst, fmt.Errorf("%w: %q", ErrType, t)
	}
	// Known types are plain ASCII: no string escaping needed.
	msg := append(dst, `{"version":"`+Version+`","type":"`...)
	msg = append(msg, t...)
	msg = append(msg, `","generated_at_ms":`...)
	msg = strconv.AppendInt(msg, generatedAtMs, 10)
	return append(msg, `,"payload":`...), nil
}

// Decode parses an envelope and validates its version and type. It reads
// data in one pass: the payload is checked to be valid JSON and copied, not
// decoded.
func Decode(data []byte) (Envelope, error) {
	env, err := decodeEnvelope(data)
	if err != nil {
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

// DecodePayload parses an envelope's payload as T after checking the
// envelope carries the expected type. The A2I payloads, []core.QoESummary
// and []core.TrafficEstimate, are read by the hand-written decoder in
// read.go; every other T goes through encoding/json.
func DecodePayload[T any](env Envelope, want MessageType) (T, error) {
	var v T
	if env.Type != want {
		return v, fmt.Errorf("%w: have %q, want %q", ErrType, env.Type, want)
	}
	var err error
	switch p := any(&v).(type) {
	case *[]core.QoESummary:
		*p, err = decodeList(env.Payload, (*reader).summary)
	case *[]core.TrafficEstimate:
		*p, err = decodeList(env.Payload, (*reader).traffic)
	default:
		err = json.Unmarshal(env.Payload, &v)
	}
	if err != nil {
		return v, fmt.Errorf("wire: payload for %q: %w", want, err)
	}
	return v, nil
}

// Package wire defines the EONA exchange format: a small, versioned JSON
// envelope around typed payloads. The paper leaves format standardization
// to "some standard body (e.g., IETF)" (§4); this package is the concrete
// binding this implementation speaks — explicit version string, explicit
// message type, ISO-agnostic millisecond timestamps, and strict decoding
// (unknown versions and mismatched types are errors, unknown fields inside
// payloads are ignored for forward compatibility).
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
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
	// TypeError carries an ErrorBody.
	TypeError MessageType = "error"
)

var knownTypes = map[MessageType]bool{
	TypeQoESummaries:     true,
	TypeTrafficEstimates: true,
	TypePeeringInfo:      true,
	TypeAttribution:      true,
	TypeServerHints:      true,
	TypeError:            true,
}

// Envelope is the outer message framing. Decoding tolerates unknown
// envelope fields (a newer minor revision may add some), an absent Schema,
// and any same-major Version string.
type Envelope struct {
	Version string      `json:"version"`
	Type    MessageType `json:"type"`
	// Schema is the envelope's minor schema revision. Absent on the wire
	// (0) means the original revision 1; decoders never reject a newer
	// value, since minor revisions only add fields. Read it via SchemaRev.
	Schema int `json:"schema,omitempty"`
	// GeneratedAtMs is the producer's clock (virtual or wall) in
	// milliseconds — consumers use it to judge staleness.
	GeneratedAtMs int64           `json:"generated_at_ms"`
	Payload       json.RawMessage `json:"payload"`
}

// SchemaRev returns the envelope's schema revision, mapping the legacy
// absent/zero encoding to revision 1.
func (e Envelope) SchemaRev() int {
	if e.Schema <= 0 {
		return 1
	}
	return e.Schema
}

// ErrorBody is the payload of a TypeError message.
type ErrorBody struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
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
// fields. The bytes are those encoding/json emits for the whole Envelope:
// its pass over a RawMessage payload only re-compacts, and a marshalled
// payload is already compact and HTML-escaped. On error it returns dst
// unchanged.
func AppendEncode(dst []byte, t MessageType, generatedAtMs int64, payload any) (msg, raw []byte, err error) {
	if !knownTypes[t] {
		return dst, nil, fmt.Errorf("%w: %q", ErrType, t)
	}
	// Known types are plain ASCII: no string escaping needed.
	msg = append(dst, `{"version":"`+Version+`","type":"`...)
	msg = append(msg, t...)
	msg = append(msg, `","generated_at_ms":`...)
	msg = strconv.AppendInt(msg, generatedAtMs, 10)
	msg = append(msg, `,"payload":`...)
	start := len(msg)
	buf := bytes.NewBuffer(msg)
	if err := json.NewEncoder(buf).Encode(payload); err != nil {
		return dst, nil, fmt.Errorf("wire: marshal payload: %w", err)
	}
	// The encoder ends each value with a newline; it becomes the envelope's
	// closing brace.
	msg = buf.Bytes()
	msg[len(msg)-1] = '}'
	return msg, msg[start : len(msg)-1 : len(msg)-1], nil
}

// Decode parses an envelope and validates its version and type.
func Decode(data []byte) (Envelope, error) {
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

// DecodePayload parses an envelope's payload as T after checking the
// envelope carries the expected type.
func DecodePayload[T any](env Envelope, want MessageType) (T, error) {
	var v T
	if env.Type != want {
		return v, fmt.Errorf("%w: have %q, want %q", ErrType, env.Type, want)
	}
	if err := json.Unmarshal(env.Payload, &v); err != nil {
		return v, fmt.Errorf("wire: payload for %q: %w", want, err)
	}
	return v, nil
}

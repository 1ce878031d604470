package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"eona/internal/core"
)

// This file is the encoder for the two A2I payloads, the mirror of read.go:
// no reflection, and byte for byte what json.Marshal writes for the same Go
// values. The parity rules, each pinned against the json.Marshal oracle by
// TestEncodeMatchesMarshal and FuzzEncodeMatchesMarshal:
//
//   - Fields appear in struct order under their json tag names, with no
//     whitespace.
//   - A float is strconv's shortest form: 'f' notation, or 'e' below 1e-6
//     and from 1e21 up (zero excepted), with a one-digit negative exponent
//     unpadded ("1e-7", not "1e-07"). NaN and ±Inf are an error.
//   - Strings are HTML-safe: '<', '>' and '&' become \u003c, \u003e and
//     \u0026, U+2028 and U+2029 are escaped, control bytes take their short
//     escape or \u00XX, and each invalid UTF-8 byte becomes \ufffd.
//   - A nil list is null, an empty one [].

// AppendSummary appends s's JSON object to dst. On error (a NaN or infinite
// field) it returns dst unchanged.
func AppendSummary(dst []byte, s *core.QoESummary) ([]byte, error) {
	if err := finite(s.Sessions, s.MeanScore, s.MeanBufferingRatio,
		s.MeanBitrateBps, s.MeanStartupSec, s.AbandonmentRate); err != nil {
		return dst, err
	}
	b := append(dst, `{"key":{"client_isp":`...)
	b = appendString(b, s.Key.ClientISP)
	b = append(b, `,"cdn":`...)
	b = appendString(b, s.Key.CDN)
	b = append(b, `,"cluster":`...)
	b = appendString(b, s.Key.Cluster)
	b = append(b, `},"sessions":`...)
	b = appendFloat(b, s.Sessions)
	b = append(b, `,"mean_score":`...)
	b = appendFloat(b, s.MeanScore)
	b = append(b, `,"mean_buffering_ratio":`...)
	b = appendFloat(b, s.MeanBufferingRatio)
	b = append(b, `,"mean_bitrate_bps":`...)
	b = appendFloat(b, s.MeanBitrateBps)
	b = append(b, `,"mean_startup_sec":`...)
	b = appendFloat(b, s.MeanStartupSec)
	b = append(b, `,"abandonment_rate":`...)
	b = appendFloat(b, s.AbandonmentRate)
	return append(b, '}'), nil
}

// AppendTraffic appends t's JSON object to dst. On error (a NaN or infinite
// field) it returns dst unchanged.
func AppendTraffic(dst []byte, t *core.TrafficEstimate) ([]byte, error) {
	if err := finite(t.VolumeBps, t.Sessions); err != nil {
		return dst, err
	}
	b := append(dst, `{"appp":`...)
	b = appendString(b, t.AppP)
	b = append(b, `,"cdn":`...)
	b = appendString(b, t.CDN)
	b = append(b, `,"volume_bps":`...)
	b = appendFloat(b, t.VolumeBps)
	b = append(b, `,"sessions":`...)
	b = appendFloat(b, t.Sessions)
	return append(b, '}'), nil
}

// AppendList appends v as a JSON array, or null for a nil v, with elem(b, i)
// appending element i to b. It is the one list framing of the A2I payloads:
// AppendEncode passes an element appender, the looking glass's reply memo
// one that may copy an element's stored bytes instead. On error it returns
// dst unchanged.
func AppendList[E any](dst []byte, v []E, elem func(b []byte, i int) ([]byte, error)) ([]byte, error) {
	if v == nil {
		return append(dst, "null"...), nil
	}
	b := append(dst, '[')
	for i := range v {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = elem(b, i); err != nil {
			return dst, err
		}
	}
	return append(b, ']'), nil
}

// finite fails on the first NaN or ±Inf among fs: JSON cannot carry them.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	return nil
}

// appendFloat appends f, which must be finite, as encoding/json writes a
// float64.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a string carries unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a quoted, HTML-safe JSON string.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

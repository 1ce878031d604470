package wire

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"eona/internal/core"
)

// This file is the decoder: one pass over the bytes, no reflection. It reads
// the envelope and the two A2I payloads, the bodies a polling partner
// decodes on every poll, and matches encoding/json's Unmarshal into the same
// Go types on every input. The parity rules, each pinned against the
// json.Unmarshal oracle by FuzzDecodeMatchesUnmarshal:
//
//   - The whole input is one valid JSON value plus optional whitespace, no
//     deeper than maxDepth containers, with no raw control character in a
//     string.
//   - A key selects a field by exact match, then by encoding/json's case
//     fold (non-ASCII included: "ſessions" sets sessions). Other keys are
//     skipped; a repeated key decodes again into the same field.
//   - null leaves a field unchanged, is the zero element inside an array,
//     and is a nil slice as the whole payload; [] is an empty, non-nil slice.
//   - Any other type mismatch, a float64 out of range or an integer that
//     does not fit, or has a fraction or an exponent, is an error.
//   - Strings decode escapes; an invalid UTF-8 byte and an unpaired
//     surrogate escape each become U+FFFD.

// maxDepth is encoding/json's nesting limit: the number of objects and
// arrays that may be open at once.
const maxDepth = 10000

// reader walks data from off.
type reader struct {
	data []byte
	off  int
	buf  []byte // scratch for strings that need unquoting
}

func (r *reader) syntaxError(what string) error {
	if r.off >= len(r.data) {
		return fmt.Errorf("unexpected end of JSON input (%s)", what)
	}
	return fmt.Errorf("invalid character %q at offset %d (%s)", r.data[r.off], r.off, what)
}

// mismatch reports a value of the wrong JSON type, or a syntax error where
// no value starts at all.
func (r *reader) mismatch(want string) error {
	if r.off >= len(r.data) {
		return r.syntaxError("looking for a value")
	}
	return fmt.Errorf("cannot decode the value at offset %d into %s", r.off, want)
}

// peek skips whitespace and returns the next byte, or 0 at the end of data.
// No JSON value starts with a 0 byte, so callers treat both alike.
func (r *reader) peek() byte {
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end fails unless only whitespace remains.
func (r *reader) end() error {
	if r.peek() != 0 || r.off < len(r.data) {
		return r.syntaxError("after top-level value")
	}
	return nil
}

// literal consumes word, one of true, false and null.
func (r *reader) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if r.off >= len(r.data) || r.data[r.off] != word[i] {
			return r.syntaxError("in literal " + word)
		}
		r.off++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a JSON number and returns its bytes.
func (r *reader) number() ([]byte, error) {
	d, start := r.data, r.off
	if r.off < len(d) && d[r.off] == '-' {
		r.off++
	}
	switch {
	case r.off < len(d) && d[r.off] == '0':
		r.off++
	case r.off < len(d) && '1' <= d[r.off] && d[r.off] <= '9':
		for r.off++; r.off < len(d) && isDigit(d[r.off]); r.off++ {
		}
	default:
		return nil, r.syntaxError("in numeric literal")
	}
	if r.off < len(d) && d[r.off] == '.' {
		r.off++
		if r.off >= len(d) || !isDigit(d[r.off]) {
			return nil, r.syntaxError("after decimal point in numeric literal")
		}
		for ; r.off < len(d) && isDigit(d[r.off]); r.off++ {
		}
	}
	if r.off < len(d) && (d[r.off] == 'e' || d[r.off] == 'E') {
		r.off++
		if r.off < len(d) && (d[r.off] == '+' || d[r.off] == '-') {
			r.off++
		}
		if r.off >= len(d) || !isDigit(d[r.off]) {
			return nil, r.syntaxError("in exponent of numeric literal")
		}
		for ; r.off < len(d) && isDigit(d[r.off]); r.off++ {
		}
	}
	return d[start:r.off], nil
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// plainASCII marks the bytes a string holds as they are: printable ASCII
// other than the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes the string at off and returns the bytes between its quotes.
// plain reports that they need no unquoting: no escape, valid UTF-8.
func (r *reader) str() (s []byte, plain bool, err error) {
	d := r.data
	start := r.off + 1
	plain, ascii := true, true
	for i := start; i < len(d); i++ {
		if plainASCII[d[i]] {
			continue
		}
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			s = d[start:i]
			if plain && !ascii {
				plain = utf8.Valid(s)
			}
			return s, plain, nil
		case c == '\\':
			plain = false
			r.off = i + 1
			if i+1 >= len(d) {
				return nil, false, r.syntaxError("in string escape code")
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 2; k < 6; k++ {
					r.off = i + k
					if i+k >= len(d) || !isHex(d[i+k]) {
						return nil, false, r.syntaxError("in \\u hexadecimal character escape")
					}
				}
				i += 5
			default:
				return nil, false, r.syntaxError("in string escape code")
			}
		case c < ' ':
			r.off = i
			return nil, false, r.syntaxError("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.off = len(d)
	return nil, false, r.syntaxError("in string literal")
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes s, string contents that str accepted, into the scratch
// buffer: escapes resolved, a surrogate pair joined, and each unpaired
// surrogate and invalid UTF-8 byte turned into U+FFFD. The result is valid
// until the next unquote.
func (r *reader) unquote(s []byte) []byte {
	b := r.buf[:0]
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'u':
				rr := getu4(s[i:])
				i += 6
				if utf16.IsSurrogate(rr) {
					if pair := utf16.DecodeRune(rr, getu4(s[i:])); pair != unicode.ReplacementChar {
						rr = pair
						i += 6
					} else {
						rr = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, rr)
				continue
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, rr)
			i += n
		}
	}
	r.buf = b
	return b
}

// skip validates and consumes one value of any type. depth is the number of
// containers open around it.
func (r *reader) skip(depth int) error {
	var inObject [maxDepth/64 + 1]uint64 // bit n: the n-th container opened here is an object
	n := 0                               // containers opened here and still open
	for {
		switch c := r.peek(); c {
		case '{', '[':
			if depth+n+1 > maxDepth {
				return r.syntaxError("exceeded max depth")
			}
			r.off++
			closer := byte(']')
			inObject[n/64] &^= 1 << (n % 64)
			if c == '{' {
				closer = '}'
				inObject[n/64] |= 1 << (n % 64)
			}
			n++
			if r.peek() == closer {
				r.off++
				n--
				break
			}
			if c == '{' {
				if _, _, err := r.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := r.str(); err != nil {
				return err
			}
		case 't':
			if err := r.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := r.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := r.literal("null"); err != nil {
				return err
			}
		default:
			if _, err := r.number(); err != nil {
				return err
			}
		}
		// A value ended: close containers until one continues with a comma.
		for {
			if n == 0 {
				return nil
			}
			obj := inObject[(n-1)/64]&(1<<((n-1)%64)) != 0
			c := r.peek()
			if c == ',' {
				r.off++
				if obj {
					if _, _, err := r.key(); err != nil {
						return err
					}
				}
				break
			}
			if obj && c == '}' || !obj && c == ']' {
				r.off++
				n--
				continue
			}
			return r.syntaxError("after a value inside a container")
		}
	}
}

// key consumes an object key and the colon after it and returns the key as
// str does.
func (r *reader) key() (k []byte, plain bool, err error) {
	if r.peek() != '"' {
		return nil, false, r.syntaxError("looking for beginning of object key string")
	}
	if k, plain, err = r.str(); err != nil {
		return nil, false, err
	}
	if r.peek() != ':' {
		return nil, false, r.syntaxError("after object key")
	}
	r.off++
	return k, plain, nil
}

// object consumes the object at off, calling member with each key; member
// must consume the value, which starts at off.
func (r *reader) object(member func(key []byte) error) error {
	r.off++ // '{'
	if r.peek() == '}' {
		r.off++
		return nil
	}
	for {
		k, plain, err := r.key()
		if err != nil {
			return err
		}
		if !plain {
			k = r.unquote(k)
		}
		r.peek()
		if err := member(k); err != nil {
			return err
		}
		switch r.peek() {
		case ',':
			r.off++
		case '}':
			r.off++
			return nil
		default:
			return r.syntaxError("after object key:value pair")
		}
	}
}

// foldRune returns the smallest rune of r's case-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func upperASCII(r rune) rune {
	if 'a' <= r && r <= 'z' {
		r -= 'a' - 'A'
	}
	return r
}

// foldEqual reports whether key and name fold to the same bytes the way
// encoding/json folds keys: ASCII letters to upper case, every other rune to
// the smallest rune of its fold orbit. name is ASCII.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		c, n := rune(key[i]), 1
		if c >= utf8.RuneSelf {
			c, n = utf8.DecodeRune(key[i:])
			c = foldRune(c)
		}
		i += n
		if upperASCII(c) != upperASCII(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

// field returns the index of the name key selects, or -1.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// stringInto decodes a string into *s; null leaves it unchanged.
func (r *reader) stringInto(s *string) error {
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case '"':
	default:
		return r.mismatch("string")
	}
	b, plain, err := r.str()
	if err != nil {
		return err
	}
	if !plain {
		b = r.unquote(b)
	}
	*s = string(b)
	return nil
}

// numberLiteral consumes a number and returns its bytes, or returns nil
// bytes for null.
func (r *reader) numberLiteral(want string) ([]byte, error) {
	switch c := r.peek(); {
	case c == 'n':
		return nil, r.literal("null")
	case c == '-' || isDigit(c):
		return r.number()
	default:
		return nil, r.mismatch(want)
	}
}

// floatInto decodes a number into *f; null leaves it unchanged.
func (r *reader) floatInto(f *float64) error {
	num, err := r.numberLiteral("float64")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return fmt.Errorf("number %s overflows float64", num)
	}
	*f = v
	return nil
}

// intInto decodes an integer of the given bit size into *i; null leaves it
// unchanged.
func (r *reader) intInto(i *int64, bitSize int) error {
	num, err := r.numberLiteral("integer")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, bitSize)
	if err != nil {
		return fmt.Errorf("number %s is not an int%d", num, bitSize)
	}
	*i = v
	return nil
}

var envelopeFields = []string{"version", "type", "schema", "generated_at_ms", "payload"}

// decodeEnvelope reads data as an Envelope, copying the payload's bytes.
func decodeEnvelope(data []byte) (Envelope, error) {
	r := reader{data: data}
	var env Envelope
	var payload []byte
	switch r.peek() {
	case 'n': // null leaves the envelope empty
		if err := r.literal("null"); err != nil {
			return Envelope{}, err
		}
	case '{':
		err := r.object(func(key []byte) error {
			switch field(key, envelopeFields) {
			case 0:
				return r.stringInto(&env.Version)
			case 1:
				return r.stringInto((*string)(&env.Type))
			case 2:
				schema := int64(env.Schema)
				err := r.intInto(&schema, strconv.IntSize)
				env.Schema = int(schema)
				return err
			case 3:
				return r.intInto(&env.GeneratedAtMs, 64)
			case 4:
				start := r.off
				err := r.skip(1)
				payload = data[start:r.off]
				return err
			}
			return r.skip(1)
		})
		if err != nil {
			return Envelope{}, err
		}
	default:
		return Envelope{}, r.mismatch("an envelope")
	}
	if err := r.end(); err != nil {
		return Envelope{}, err
	}
	if payload != nil {
		env.Payload = append([]byte(nil), payload...)
	}
	return env, nil
}

// decodeList reads data as a JSON array of E, calling elem for each object
// element. null gives a nil slice, [] an empty one and a null element the
// zero E.
func decodeList[E any](data []byte, elem func(*reader, *E) error) ([]E, error) {
	r := reader{data: data}
	var out []E
	switch r.peek() {
	case 'n':
		if err := r.literal("null"); err != nil {
			return nil, err
		}
	case '[':
		r.off++
		out = []E{}
		if r.peek() == ']' {
			r.off++
			break
		}
		var zero E
		for {
			out = append(out, zero)
			switch r.peek() {
			case 'n':
				if err := r.literal("null"); err != nil {
					return nil, err
				}
			case '{':
				if err := elem(&r, &out[len(out)-1]); err != nil {
					return nil, err
				}
			default:
				return nil, r.mismatch("an object")
			}
			c := r.peek()
			if c == ']' {
				r.off++
				break
			}
			if c != ',' {
				return nil, r.syntaxError("after array element")
			}
			r.off++
		}
	default:
		return nil, r.mismatch("an array")
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return out, nil
}

var (
	summaryFields    = []string{"key", "sessions", "mean_score", "mean_buffering_ratio", "mean_bitrate_bps", "mean_startup_sec", "abandonment_rate"}
	summaryKeyFields = []string{"client_isp", "cdn", "cluster"}
	trafficFields    = []string{"appp", "cdn", "volume_bps", "sessions"}
)

// Member values of list elements sit inside the array and the element.
const elemDepth = 2

func (r *reader) summary(s *core.QoESummary) error {
	return r.object(func(key []byte) error {
		switch field(key, summaryFields) {
		case 0:
			return r.summaryKey(&s.Key)
		case 1:
			return r.floatInto(&s.Sessions)
		case 2:
			return r.floatInto(&s.MeanScore)
		case 3:
			return r.floatInto(&s.MeanBufferingRatio)
		case 4:
			return r.floatInto(&s.MeanBitrateBps)
		case 5:
			return r.floatInto(&s.MeanStartupSec)
		case 6:
			return r.floatInto(&s.AbandonmentRate)
		}
		return r.skip(elemDepth)
	})
}

func (r *reader) summaryKey(k *core.SummaryKey) error {
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case '{':
	default:
		return r.mismatch("a summary key")
	}
	return r.object(func(key []byte) error {
		switch field(key, summaryKeyFields) {
		case 0:
			return r.stringInto(&k.ClientISP)
		case 1:
			return r.stringInto(&k.CDN)
		case 2:
			return r.stringInto(&k.Cluster)
		}
		return r.skip(elemDepth + 1)
	})
}

func (r *reader) traffic(t *core.TrafficEstimate) error {
	return r.object(func(key []byte) error {
		switch field(key, trafficFields) {
		case 0:
			return r.stringInto(&t.AppP)
		case 1:
			return r.stringInto(&t.CDN)
		case 2:
			return r.floatInto(&t.VolumeBps)
		case 3:
			return r.floatInto(&t.Sessions)
		}
		return r.skip(elemDepth)
	})
}

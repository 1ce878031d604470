package lookingglass

import (
	"math"
	"net/http"
	"sync"

	"eona/internal/core"
	"eona/internal/wire"
)

// replyMemo serves one A2I route from stored bytes (DESIGN.md §5, "Serve
// unchanged state from its bytes"). Every request still calls its source. A
// value equal to the slot's own copy is a hit: its stored payload gets a
// fresh envelope and keeps its ETag, with no encode and no hash. Any other
// value is a miss and replaces the slot's: its payload is built element by
// element, copying the stored fragment of each element equal to the slot's
// element at the same index and encoding the rest.
type replyMemo[E any] struct {
	t wire.MessageType
	// same compares every field, floats by their bits.
	same func(a, b *E) bool
	// appendElem appends one element's JSON, as json.Marshal writes it.
	appendElem func(dst []byte, e *E) ([]byte, error)

	mu    sync.Mutex
	slots map[string]*memoSlot[E]
}

// memoSlot is one collaborator's memo. The collaborator set is bounded by
// the auth store, so slots are never evicted.
type memoSlot[E any] struct {
	mu sync.Mutex
	// cur is the body of the last value a miss published, nil before the
	// first. A miss builds outside mu, from cur as it was when the miss
	// began. A body is written only by the miss that took it, before that
	// miss publishes it as cur.
	cur *memoBody[E]
	// spare is a body that is neither cur nor read by a miss: the next
	// miss builds into it.
	spare *memoBody[E]
}

// memoBody is a value, the payload it encodes to, the offset in payload
// just past each element's fragment, and the payload's ETag. value is a
// copy, so nothing outside the slot can change it.
type memoBody[E any] struct {
	value   []E
	payload []byte
	ends    []int
	etag    string
	// readers counts the misses building from this body.
	readers int
}

func (m *replyMemo[E]) slot(collab string) *memoSlot[E] {
	m.mu.Lock()
	defer m.mu.Unlock()
	sl, ok := m.slots[collab]
	if !ok {
		if m.slots == nil {
			m.slots = make(map[string]*memoSlot[E])
		}
		sl = new(memoSlot[E])
		m.slots[collab] = sl
	}
	return sl
}

// holding returns the slot's body if it holds v, else nil. The caller holds
// sl.mu.
func (sl *memoSlot[E]) holding(v []E, same func(a, b *E) bool) *memoBody[E] {
	if sl.cur != nil && sameList(v, sl.cur.value, same) {
		return sl.cur
	}
	return nil
}

// recycle makes b the spare if it is neither cur nor read by a miss. The
// caller holds sl.mu.
func (sl *memoSlot[E]) recycle(b *memoBody[E]) {
	if b != nil && b != sl.cur && b.readers == 0 {
		sl.spare = b
	}
}

// serve answers r with v, the value collab's source returned for it. A hit
// holds the slot's lock for a compare and a copy, and a miss only to take
// its base and spare and to publish, so one collaborator's requests do not
// wait on each other's encodes.
func (m *replyMemo[E]) serve(s *Server, w http.ResponseWriter, r *http.Request, collab string, v []E) {
	sl := m.slot(collab)
	buf := getReplyBuf()
	defer putReplyBuf(buf)

	now := s.Now()
	sl.mu.Lock()
	if hit := sl.holding(v, m.same); hit != nil {
		// A 304 needs no body.
		if !noneMatch(r.Header.Values("If-None-Match"), hit.etag) {
			// The type is known, so wrapping cannot fail.
			*buf, _ = wire.AppendWrap((*buf)[:0], m.t, now, hit.payload)
		}
		etag := hit.etag
		sl.mu.Unlock()
		s.send(w, r, etag, *buf)
		return
	}
	base, nb := sl.cur, sl.spare
	if base != nil {
		base.readers++
	}
	sl.spare = nil
	sl.mu.Unlock()

	if nb == nil {
		nb = new(memoBody[E])
	}
	msg, raw, err := wire.AppendEnvelope((*buf)[:0], m.t, now, func(b []byte) ([]byte, error) {
		return m.build(b, nb, base, v)
	})
	var etag string
	if err == nil {
		*buf = msg
		nb.set(v, raw)
		etag = nb.etag
	}
	sl.mu.Lock()
	if base != nil {
		base.readers--
	}
	if err == nil {
		nb, sl.cur = sl.cur, nb
	}
	sl.recycle(nb)
	sl.recycle(base)
	sl.mu.Unlock()
	if err != nil {
		s.encodeFailed(w, m.t, err)
		return
	}
	s.send(w, r, etag, *buf)
}

// build appends v's payload to b, element by element: base's fragment for
// each element equal to base's at the same index, a fresh encode for the
// rest. It records in nb.ends where each element's fragment ends, counted
// from the payload's first byte. base may be nil.
func (m *replyMemo[E]) build(b []byte, nb, base *memoBody[E], v []E) ([]byte, error) {
	var old []E
	if base != nil {
		old = base.value
	}
	start := len(b)
	nb.ends = nb.ends[:0]
	return wire.AppendList(b, v, func(b []byte, i int) ([]byte, error) {
		if i < len(old) && m.same(&v[i], &old[i]) {
			// The fragment starts after the '[' or ',' that ends the
			// one before it.
			from := 1
			if i > 0 {
				from = base.ends[i-1] + 1
			}
			b = append(b, base.payload[from:base.ends[i]]...)
		} else {
			var err error
			if b, err = m.appendElem(b, &v[i]); err != nil {
				return b, err
			}
		}
		nb.ends = append(nb.ends, len(b)-start)
		return b, nil
	})
}

// set makes b hold v and raw, the payload build wrote for it, copying both
// into b's buffers and reusing their capacity.
func (b *memoBody[E]) set(v []E, raw []byte) {
	b.payload = append(b.payload[:0], raw...)
	b.etag = payloadETag(raw)
	if v == nil {
		b.value = nil
		return
	}
	if b.value == nil {
		b.value = make([]E, 0, len(v))
	}
	b.value = append(b.value[:0], v...)
}

// sameList reports whether a and b encode to the same payload: both nil
// (null) or both not (a list), and equal element by element.
func sameList[E any](a, b []E, same func(a, b *E) bool) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !same(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// sameBits compares floats by their bits: -0 and 0 differ, as their
// encodings do. A NaN equal to itself never reaches a slot, since it fails
// to encode.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSummary(a, b *core.QoESummary) bool {
	return a.Key == b.Key &&
		sameBits(a.Sessions, b.Sessions) &&
		sameBits(a.MeanScore, b.MeanScore) &&
		sameBits(a.MeanBufferingRatio, b.MeanBufferingRatio) &&
		sameBits(a.MeanBitrateBps, b.MeanBitrateBps) &&
		sameBits(a.MeanStartupSec, b.MeanStartupSec) &&
		sameBits(a.AbandonmentRate, b.AbandonmentRate)
}

func sameTraffic(a, b *core.TrafficEstimate) bool {
	return a.AppP == b.AppP && a.CDN == b.CDN &&
		sameBits(a.VolumeBps, b.VolumeBps) &&
		sameBits(a.Sessions, b.Sessions)
}

package lookingglass

import (
	"math"
	"net/http"
	"sync"

	"eona/internal/core"
	"eona/internal/wire"
)

// replyMemo serves one A2I route from stored bytes while the value a
// collaborator's source returns is unchanged (DESIGN.md §5, "Serve unchanged
// state from its bytes"). Every request still calls its source. A value
// equal to the slot's own copy is a hit: its stored payload gets a fresh
// envelope and keeps its ETag, with no encode and no hash. Anything else is
// encoded as reply does, and a value seen on two misses in a row is copied
// into the slot.
type replyMemo[E any] struct {
	t wire.MessageType
	// same compares every field, floats by their bits.
	same func(a, b *E) bool

	mu    sync.Mutex
	slots map[string]*memoSlot[E]
}

// memoSlot is one collaborator's memo. The collaborator set is bounded by
// the auth store, so slots are never evicted.
type memoSlot[E any] struct {
	mu sync.Mutex
	// held says value, payload and etag are set: a value, the payload it
	// encoded to, and that payload's ETag. value and payload are the
	// slot's own copies, so nothing outside the slot can change them.
	held    bool
	value   []E
	payload []byte
	etag    string
	// pending is the value of the last miss, as its source returned it.
	pending []E
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

// serve answers r with v, the value collab's source returned for it.
func (m *replyMemo[E]) serve(s *Server, w http.ResponseWriter, r *http.Request, collab string, v []E) {
	sl := m.slot(collab)
	buf := getReplyBuf()
	defer putReplyBuf(buf)

	now := s.Now()
	sl.mu.Lock()
	if sl.held && sameList(v, sl.value, m.same) {
		etag := sl.etag
		// A 304 needs no body.
		if !noneMatch(r.Header.Values("If-None-Match"), etag) {
			// The type is known, so wrapping cannot fail.
			*buf, _ = wire.AppendWrap((*buf)[:0], m.t, now, sl.payload)
		}
		sl.mu.Unlock()
		s.send(w, r, etag, *buf)
		return
	}
	sl.mu.Unlock()

	raw, ok := s.encode(w, buf, m.t, now, v)
	if !ok {
		return
	}
	etag := payloadETag(raw)
	sl.mu.Lock()
	if sameList(v, sl.pending, m.same) {
		// Copy into the slot's buffers, reusing their capacity: a
		// steady-state promotion allocates nothing.
		if v == nil {
			sl.value = nil
		} else {
			if sl.value == nil {
				sl.value = make([]E, 0, len(v))
			}
			sl.value = append(sl.value[:0], v...)
		}
		sl.payload = append(sl.payload[:0], raw...)
		sl.etag, sl.held, sl.pending = etag, true, nil
	} else {
		sl.pending = v
	}
	sl.mu.Unlock()
	s.send(w, r, etag, *buf)
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

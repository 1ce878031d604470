package projection

import (
	"encoding/binary"
	"encoding/json"
	"time"

	"eona/internal/journal"
)

// Hints is the I2A hint-feed read model: the latest poll result per source,
// so a restarted looking-glass node warm-starts its peer views from the
// journal instead of waiting out a poll interval, and historical queries
// can ask "what did we know at offset N". Sources are kept in
// first-observation order for a deterministic encoding.
type Hints struct {
	Base
	latest map[string]journal.PollRecord
	order  []string
	polls  uint64 // total poll records folded
}

// NewHints builds an empty hint feed.
func NewHints() *Hints {
	h := &Hints{}
	h.Reset()
	return h
}

func (h *Hints) Name() string { return "hints" }

func (h *Hints) Reset() {
	h.latest = make(map[string]journal.PollRecord)
	h.order = h.order[:0]
	h.polls = 0
}

// FoldPoll keeps the newest record per source (journal order — later
// records supersede earlier ones).
func (h *Hints) FoldPoll(pr journal.PollRecord) {
	if _, ok := h.latest[pr.Source]; !ok {
		h.order = append(h.order, pr.Source)
	}
	h.latest[pr.Source] = pr
	h.polls++
}

// Latest returns the newest folded poll for a source.
func (h *Hints) Latest(source string) (journal.PollRecord, bool) {
	pr, ok := h.latest[source]
	return pr, ok
}

func (h *Hints) EncodeState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, h.polls)
	buf = binary.AppendUvarint(buf, uint64(len(h.order)))
	for _, src := range h.order {
		pr := h.latest[src]
		buf = journal.AppendStr(buf, src)
		buf = journal.AppendI64(buf, pr.At.UnixNano())
		buf = journal.AppendBytes(buf, pr.Data)
	}
	return buf
}

func (h *Hints) DecodeState(p []byte) error {
	r := journal.NewPayloadReader(p)
	polls := r.Uvarint("hints poll count")
	n := r.Uvarint("hints source count")
	latest := make(map[string]journal.PollRecord, n)
	var order []string
	for i := uint64(0); r.Err() == nil && i < n; i++ {
		src := r.Str("hint source")
		at := r.I64("hint time")
		data := r.BytesCopy("hint data")
		order = append(order, src)
		latest[src] = journal.PollRecord{Source: src, At: time.Unix(0, at).UTC(), Data: json.RawMessage(data)}
	}
	if err := r.Done("hints state"); err != nil {
		return err
	}
	h.latest, h.order, h.polls = latest, order, polls
	return nil
}

package projection

import (
	"encoding/binary"

	"eona/internal/core"
	"eona/internal/journal"
)

// EngagementRow is one ISP's accumulated engagement: the paper's core
// observation is that delivery quality drives engagement (play time,
// abandonment), so the engagement projection keeps exactly the per-ISP
// engagement surface an AppP watches to decide where quality problems are
// costing it viewers.
type EngagementRow struct {
	ISP         string
	Sessions    uint64
	PlaySeconds float64
	ScoreSum    float64
	Abandoned   uint64
	Switches    uint64 // bitrate + CDN switches, a quality-instability proxy
}

// MeanScore returns the ISP's mean session score (0 when empty).
func (e EngagementRow) MeanScore() float64 {
	if e.Sessions == 0 {
		return 0
	}
	return e.ScoreSum / float64(e.Sessions)
}

// AbandonRate returns the fraction of sessions abandoned (0 when empty).
func (e EngagementRow) AbandonRate() float64 {
	if e.Sessions == 0 {
		return 0
	}
	return float64(e.Abandoned) / float64(e.Sessions)
}

// Engagement is the per-ISP engagement read model, folded from ingest
// records. ISPs are kept in first-observation order for a deterministic
// encoding.
type Engagement struct {
	Base
	rows  map[string]*EngagementRow
	order []string
}

// NewEngagement builds an empty engagement projection.
func NewEngagement() *Engagement {
	e := &Engagement{}
	e.Reset()
	return e
}

func (e *Engagement) Name() string { return "engagement" }

func (e *Engagement) Reset() {
	e.rows = make(map[string]*EngagementRow)
	e.order = e.order[:0]
}

func (e *Engagement) FoldIngest(rec core.QoERecord) {
	row, ok := e.rows[rec.ClientISP]
	if !ok {
		row = &EngagementRow{ISP: rec.ClientISP}
		e.rows[rec.ClientISP] = row
		e.order = append(e.order, rec.ClientISP)
	}
	row.Sessions++
	row.PlaySeconds += rec.PlayTime.Seconds()
	row.ScoreSum += rec.Score
	if rec.Abandoned {
		row.Abandoned++
	}
	row.Switches += uint64(rec.BitrateSwitches) + uint64(rec.CDNSwitches)
}

// Row returns one ISP's engagement, an O(1) lookup.
func (e *Engagement) Row(isp string) (EngagementRow, bool) {
	row, ok := e.rows[isp]
	if !ok {
		return EngagementRow{}, false
	}
	return *row, true
}

// Rows returns every ISP's engagement in first-observation order.
func (e *Engagement) Rows() []EngagementRow {
	out := make([]EngagementRow, 0, len(e.order))
	for _, isp := range e.order {
		out = append(out, *e.rows[isp])
	}
	return out
}

func (e *Engagement) EncodeState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(e.order)))
	for _, isp := range e.order {
		row := e.rows[isp]
		buf = journal.AppendStr(buf, isp)
		buf = binary.AppendUvarint(buf, row.Sessions)
		buf = journal.AppendF64(buf, row.PlaySeconds)
		buf = journal.AppendF64(buf, row.ScoreSum)
		buf = binary.AppendUvarint(buf, row.Abandoned)
		buf = binary.AppendUvarint(buf, row.Switches)
	}
	return buf
}

func (e *Engagement) DecodeState(p []byte) error {
	r := journal.NewPayloadReader(p)
	n := r.Uvarint("engagement row count")
	rows := make(map[string]*EngagementRow, n)
	var order []string
	for i := uint64(0); r.Err() == nil && i < n; i++ {
		row := &EngagementRow{}
		row.ISP = r.Str("engagement isp")
		row.Sessions = r.Uvarint("engagement sessions")
		row.PlaySeconds = r.F64("engagement play seconds")
		row.ScoreSum = r.F64("engagement score sum")
		row.Abandoned = r.Uvarint("engagement abandoned")
		row.Switches = r.Uvarint("engagement switches")
		rows[row.ISP] = row
		order = append(order, row.ISP)
	}
	if err := r.Done("engagement state"); err != nil {
		return err
	}
	e.rows, e.order = rows, order
	return nil
}

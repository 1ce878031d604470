package projection

import (
	"encoding/binary"

	"eona/internal/journal"
	"eona/internal/netsim"
)

// UtilPoint is one sample of the link-utilization series: the network-wide
// mean and max link utilization (allocated rate / capacity) observed at the
// snapshot taken after OpIndex ops.
type UtilPoint struct {
	OpIndex  int
	MeanUtil float64
	MaxUtil  float64
	Links    int // links with positive capacity contributing to the means
}

// UtilRetention is how many of the newest utilization samples LinkUtil
// keeps. The series is a chart's recent window, not an archive (the journal
// is the archive): a bounded store keeps the folder's memory, its checkpoint
// frames and every /v1/stats read O(1) in the length of the run, where an
// ever-growing series made each checkpoint re-encode all of history.
const UtilRetention = 512

// LinkUtil is the infrastructure-side read model: a utilization time series
// over the op log, sampled at every journaled network snapshot and bounded
// to the newest UtilRetention points, plus live op-derived counters (ops
// folded, flow starts/stops, capacity edits, samples taken). It is the
// projection an InfP looking glass charts without replaying history.
type LinkUtil struct {
	Base
	// series is a ring once full: sample k (counting from zero) lives at
	// k % UtilRetention, so the oldest retained point is at samples %
	// UtilRetention.
	series   []UtilPoint
	samples  uint64
	ops      uint64
	starts   uint64
	stops    uint64
	capEdits uint64
}

// NewLinkUtil builds an empty utilization series.
func NewLinkUtil() *LinkUtil {
	l := &LinkUtil{}
	l.Reset()
	return l
}

func (l *LinkUtil) Name() string { return "linkutil" }

func (l *LinkUtil) Reset() {
	l.series = l.series[:0]
	l.samples = 0
	l.ops, l.starts, l.stops, l.capEdits = 0, 0, 0, 0
}

func (l *LinkUtil) FoldOp(op netsim.Op, digest uint64) {
	l.ops++
	switch op.Kind {
	case netsim.OpStart:
		l.starts++
	case netsim.OpStop:
		l.stops++
	case netsim.OpSetLinkCapacity:
		l.capEdits++
	}
}

// FoldSnapshot samples utilization from the snapshot's recorded link rates
// and capacities — rates are allocator outputs the fold could not recompute
// itself, which is exactly why the series samples at snapshot records.
func (l *LinkUtil) FoldSnapshot(opIndex int, st *netsim.NetState) {
	pt := UtilPoint{OpIndex: opIndex}
	for i, cap := range st.Capacities {
		if cap <= 0 || i >= len(st.LinkRates) {
			continue
		}
		util := st.LinkRates[i] / cap
		pt.MeanUtil += util
		if util > pt.MaxUtil {
			pt.MaxUtil = util
		}
		pt.Links++
	}
	if pt.Links > 0 {
		pt.MeanUtil /= float64(pt.Links)
	}
	if len(l.series) < UtilRetention {
		l.series = append(l.series, pt)
	} else {
		l.series[l.samples%UtilRetention] = pt // overwrites the oldest
	}
	l.samples++
}

// oldest is the ring position of the oldest retained point.
func (l *LinkUtil) oldest() int {
	if len(l.series) < UtilRetention {
		return 0
	}
	return int(l.samples % UtilRetention)
}

// Series returns the retained utilization points — the newest UtilRetention
// at most — in journal order.
func (l *LinkUtil) Series() []UtilPoint {
	o := l.oldest()
	return append(append(make([]UtilPoint, 0, len(l.series)), l.series[o:]...), l.series[:o]...)
}

// Samples returns how many utilization samples have been folded in total,
// retained or not.
func (l *LinkUtil) Samples() uint64 { return l.samples }

// Ops, Starts, Stops and CapacityEdits are the folded op counters.
func (l *LinkUtil) Ops() uint64 { return l.ops }

// Starts returns the number of flow-start ops folded.
func (l *LinkUtil) Starts() uint64 { return l.starts }

// Stops returns the number of flow-stop ops folded.
func (l *LinkUtil) Stops() uint64 { return l.stops }

// CapacityEdits returns the number of capacity-edit ops folded.
func (l *LinkUtil) CapacityEdits() uint64 { return l.capEdits }

func (l *LinkUtil) EncodeState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, l.ops)
	buf = binary.AppendUvarint(buf, l.starts)
	buf = binary.AppendUvarint(buf, l.stops)
	buf = binary.AppendUvarint(buf, l.capEdits)
	buf = binary.AppendUvarint(buf, l.samples)
	buf = binary.AppendUvarint(buf, uint64(len(l.series)))
	o := l.oldest()
	for _, part := range [2][]UtilPoint{l.series[o:], l.series[:o]} {
		for _, pt := range part {
			buf = binary.AppendUvarint(buf, uint64(pt.OpIndex))
			buf = journal.AppendF64(buf, pt.MeanUtil)
			buf = journal.AppendF64(buf, pt.MaxUtil)
			buf = binary.AppendUvarint(buf, uint64(pt.Links))
		}
	}
	return buf
}

func (l *LinkUtil) DecodeState(p []byte) error {
	r := journal.NewPayloadReader(p)
	ops := r.Uvarint("linkutil ops")
	starts := r.Uvarint("linkutil starts")
	stops := r.Uvarint("linkutil stops")
	capEdits := r.Uvarint("linkutil capacity edits")
	samples := r.Uvarint("linkutil sample count")
	n := r.Uvarint("linkutil point count")
	if n != min(samples, UtilRetention) {
		r.Fail("linkutil point count")
		n = 0
	}
	// Points arrive oldest first; each goes straight to its ring position.
	series := make([]UtilPoint, n)
	for i := uint64(0); r.Err() == nil && i < n; i++ {
		pt := &series[(samples-n+i)%UtilRetention]
		pt.OpIndex = int(r.Uvarint("linkutil point op index"))
		pt.MeanUtil = r.F64("linkutil point mean")
		pt.MaxUtil = r.F64("linkutil point max")
		pt.Links = int(r.Uvarint("linkutil point links"))
	}
	if err := r.Done("linkutil state"); err != nil {
		return err
	}
	l.ops, l.starts, l.stops, l.capEdits = ops, starts, stops, capEdits
	l.series, l.samples = series, samples
	return nil
}

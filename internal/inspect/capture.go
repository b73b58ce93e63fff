package inspect

import (
	"hostsim/internal/sim"
	"hostsim/internal/skb"
)

// PacketRecord is one captured frame's metadata, copied out of the
// *skb.Frame at tap time: frames are pool-recycled after delivery, so
// nothing here aliases the original.
type PacketRecord struct {
	At      sim.Time
	Flow    int32
	Seq     int64
	Len     int64 // payload bytes (0 for pure ACKs and window probes)
	Ack     bool  // pure ACK: Cum/Window/SACK/ECNEcho are valid
	Cum     int64
	Window  int64
	SACK    []skb.Range
	ECNEcho bool
	CE      bool // ECN congestion-experienced mark (set by the switch)
	Dropped bool // lost at the switch right after capture
}

// Capture is the packet tap of one link direction: it records every frame
// the wire accepts (including ones the switch then drops, exactly like a
// capture at the sender's NIC egress) up to a bound.
type Capture struct {
	eng  *sim.Engine
	name string
	dir  int // 0: first host -> second host, 1: the reverse
	snap int
	max  int

	truncated int64
	recs      []PacketRecord
}

// NewCapture builds a capture for one link direction. name labels the
// pcapng interface (e.g. "sender->receiver"); dir 0 addresses frames from
// host 10.0.0.1 to 10.0.0.2 and dir 1 the reverse. It snaps frames at
// DefaultSnapLen and keeps DefaultMaxPackets of them.
func NewCapture(eng *sim.Engine, name string, dir int) *Capture {
	if eng == nil {
		panic("inspect: nil engine")
	}
	if dir != 0 && dir != 1 {
		panic("inspect: capture direction must be 0 or 1")
	}
	return &Capture{eng: eng, name: name, dir: dir, snap: DefaultSnapLen, max: DefaultMaxPackets}
}

// Tap returns the wire.Link tap callback feeding this capture. The
// callback copies frame metadata (including the SACK ranges, which the
// receiver will recycle) and never mutates the frame.
func (c *Capture) Tap() func(f *skb.Frame, dropped bool) {
	return func(f *skb.Frame, dropped bool) {
		if len(c.recs) >= c.max {
			c.truncated++
			return
		}
		rec := PacketRecord{
			At: c.eng.Now(), Flow: int32(f.Flow), Seq: f.Seq, Len: int64(f.Len),
			CE: f.CE, Dropped: dropped,
		}
		if f.Ack != nil {
			rec.Ack = true
			rec.Cum = f.Ack.Cum
			rec.Window = int64(f.Ack.Window)
			rec.ECNEcho = f.Ack.ECNEcho
			if len(f.Ack.SACK) > 0 {
				rec.SACK = append([]skb.Range(nil), f.Ack.SACK...)
			}
		}
		c.recs = append(c.recs, rec)
	}
}

// Packets returns the number of recorded frames.
func (c *Capture) Packets() int { return len(c.recs) }

// Truncated returns how many frames arrived after the capture filled up.
func (c *Capture) Truncated() int64 { return c.truncated }

// Records returns the recorded frames in capture order. The slice is the
// capture's own backing store: treat it as read-only.
func (c *Capture) Records() []PacketRecord { return c.recs }

package inspect

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/tcp"
	"hostsim/internal/telemetry"
	"hostsim/internal/units"
)

// feed pushes a frame through a capture's tap at the engine's current time.
func feed(t *testing.T, eng *sim.Engine, c *Capture, at sim.Time, f *skb.Frame, dropped bool) {
	t.Helper()
	eng.At(at, func() { c.Tap()(f, dropped) })
}

func TestPcapRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	ab := NewCapture(eng, "a->b", 0)
	ba := NewCapture(eng, "b->a", 1)

	data := &skb.Frame{Flow: 1, Seq: 4096, Len: 65536, CE: true}
	feed(t, eng, ab, 10, data, false)
	lost := &skb.Frame{Flow: 1, Seq: 69632, Len: 1000}
	feed(t, eng, ab, 20, lost, true)
	ack := &skb.Frame{Flow: 1, Ack: &skb.AckInfo{
		Cum: 69632, Window: 1 << 20, ECNEcho: true,
		SACK: []skb.Range{{Start: 131072, End: 196608}},
	}}
	feed(t, eng, ba, 15, ack, false)
	eng.Run(100)

	// The SACK slice must have been copied, not aliased.
	ack.Ack.SACK[0].Start = 7
	if got := ba.Records()[0].SACK[0].Start; got != 131072 {
		t.Fatalf("capture aliased the frame's SACK slice: %d", got)
	}

	var buf bytes.Buffer
	if err := WritePcap(&buf, ab, ba); err != nil {
		t.Fatal(err)
	}
	f, err := ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Interfaces) != 2 || len(f.Packets) != 3 {
		t.Fatalf("got %d interfaces, %d packets", len(f.Interfaces), len(f.Packets))
	}
	if f.Interfaces[0].Name != "a->b" || f.Interfaces[0].TsUnitNs != 1 {
		t.Fatalf("bad interface 0: %+v", f.Interfaces[0])
	}

	// Merge order: t=10 (a->b), t=15 (b->a), t=20 (a->b).
	wantIface := []int{0, 1, 0}
	wantAt := []sim.Time{10, 15, 20}
	for i, p := range f.Packets {
		if p.Interface != wantIface[i] || p.At != wantAt[i] {
			t.Fatalf("packet %d: interface %d at %d, want %d at %d",
				i, p.Interface, p.At, wantIface[i], wantAt[i])
		}
		if !p.Decoded {
			t.Fatalf("packet %d not decoded", i)
		}
	}

	d := f.Packets[0]
	if d.Seq != 4096 || d.PayloadLen != 65536 || !d.CE || d.Flags&FlagPSH == 0 {
		t.Fatalf("data packet decoded wrong: %+v", d)
	}
	if d.SrcIP != 0x0A000001 || d.DstIP != 0x0A000002 || d.SrcPort != 40001 || d.DstPort != 5001 {
		t.Fatalf("data packet addressing wrong: %+v", d)
	}
	if d.CapLen != DefaultSnapLen || d.OrigLen != 65536+66 {
		t.Fatalf("data packet lengths wrong: cap %d orig %d", d.CapLen, d.OrigLen)
	}

	a := f.Packets[1]
	if a.AckNum != 69632 || a.Flags&FlagECE == 0 || a.PayloadLen != 0 {
		t.Fatalf("ack packet decoded wrong: %+v", a)
	}
	if a.SrcIP != 0x0A000002 || a.SrcPort != 5001 || a.DstPort != 40001 {
		t.Fatalf("ack packet addressing wrong: %+v", a)
	}
	if len(a.SACK) != 1 || a.SACK[0].Start != 131072 || a.SACK[0].End != 196608 {
		t.Fatalf("ack packet SACK wrong: %+v", a.SACK)
	}
	if wantWin := uint16((1 << 20) >> 6); a.Window != wantWin {
		t.Fatalf("ack window %d, want %d", a.Window, wantWin)
	}
}

func TestPcapChecksums(t *testing.T) {
	rec := PacketRecord{At: 123456, Flow: 3, Seq: 1 << 31, Len: 9000}
	pkt, origLen := synthPacket(rec, 0, 42, 1<<20, nil)
	if origLen != 9066 || len(pkt) != 9066 {
		t.Fatalf("lengths: cap %d orig %d", len(pkt), origLen)
	}
	// Recomputing either checksum over the synthesized bytes must verify:
	// summing the full header including the stored checksum yields 0xFFFF.
	var ipSum uint32
	for i := 14; i < 34; i += 2 {
		ipSum += uint32(binary.BigEndian.Uint16(pkt[i:]))
	}
	for ipSum>>16 != 0 {
		ipSum = ipSum&0xFFFF + ipSum>>16
	}
	if ipSum != 0xFFFF {
		t.Fatalf("IP checksum does not verify: %04x", ipSum)
	}
	var tcpSum uint32
	src := binary.BigEndian.Uint32(pkt[26:])
	dst := binary.BigEndian.Uint32(pkt[30:])
	tcpSum += src>>16 + src&0xFFFF + dst>>16 + dst&0xFFFF + 6 + uint32(32+rec.Len)
	for i := 34; i+1 < len(pkt); i += 2 {
		tcpSum += uint32(binary.BigEndian.Uint16(pkt[i:]))
	}
	for tcpSum>>16 != 0 {
		tcpSum = tcpSum&0xFFFF + tcpSum>>16
	}
	if tcpSum != 0xFFFF {
		t.Fatalf("TCP checksum does not verify: %04x", tcpSum)
	}
}

func TestCaptureBound(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, "x", 0)
	c.snap, c.max = 64, 2
	for i := 0; i < 5; i++ {
		f := &skb.Frame{Flow: 1, Seq: int64(i), Len: 100}
		feed(t, eng, c, sim.Time(i), f, false)
	}
	eng.Run(10)
	if c.Packets() != 2 || c.Truncated() != 3 {
		t.Fatalf("got %d packets, %d truncated", c.Packets(), c.Truncated())
	}
}

func TestReadPcapRejectsCorruption(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCapture(eng, "x", 0)
	feed(t, eng, c, 5, &skb.Frame{Flow: 1, Seq: 0, Len: 10}, false)
	eng.Run(10)
	var buf bytes.Buffer
	if err := WritePcap(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadPcap(bytes.NewReader(good[8:])); err == nil {
		t.Fatal("accepted a file not starting with an SHB")
	}
	bad := append([]byte(nil), good...)
	bad[4]++ // corrupt the SHB's leading block length
	if _, err := ReadPcap(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted a mismatched block length")
	}
	if _, err := ReadPcap(bytes.NewReader(good[:len(good)-2])); err == nil {
		t.Fatal("accepted a truncated file")
	}
}

func TestProbeTraceFormats(t *testing.T) {
	tr := NewProbeTrace()
	hook := tr.Hook("sender")
	hook(tcp.ProbeEvent{
		At: 1000, Flow: 1, Kind: tcp.ProbeAck, AckedBytes: 1448,
		Cwnd: 28960, Ssthresh: 100000, InFlight: 5792,
		SRTT: 40 * time.Microsecond, SndUna: 1448, SndNxt: 7240,
	})
	hook(tcp.ProbeEvent{At: 2000, Flow: 1, Kind: tcp.ProbeFastRetransmit, Cwnd: units.Bytes(14480)})
	if tr.Len() != 2 {
		t.Fatalf("got %d records", tr.Len())
	}
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines", len(lines))
	}
	if want := "1000,sender,1,ack,1448,28960,100000,40000,5792,1448,7240"; lines[1] != want {
		t.Fatalf("CSV row %q, want %q", lines[1], want)
	}
	if !strings.Contains(lines[2], "fast-retransmit") {
		t.Fatalf("CSV row %q misses the event name", lines[2])
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"event":"ack"`) || !strings.Contains(jsonl.String(), `"cwnd_bytes":28960`) {
		t.Fatalf("JSONL output wrong: %s", jsonl.String())
	}
}

func TestProbeTraceBound(t *testing.T) {
	tr := NewProbeTrace()
	tr.max = 1
	hook := tr.Hook("h")
	hook(tcp.ProbeEvent{At: 1, Kind: tcp.ProbeAck})
	hook(tcp.ProbeEvent{At: 2, Kind: tcp.ProbeAck})
	if tr.Len() != 1 || tr.Truncated() != 1 {
		t.Fatalf("got %d records, %d truncated", tr.Len(), tr.Truncated())
	}
}

// fillProbes records n ack events at times 0..n-1.
func fillProbes(tr *ProbeTrace, n int) {
	hook := tr.Hook("h")
	for i := 0; i < n; i++ {
		hook(tcp.ProbeEvent{At: sim.Time(i), Kind: tcp.ProbeAck})
	}
}

// TestProbeTraceChunks: records span many chunks, yet Len, Records and
// both writers see every record once, in emission order, including
// records added after Records flattened the chunks.
func TestProbeTraceChunks(t *testing.T) {
	tr := NewProbeTrace()
	fillProbes(tr, 3000)
	recs := tr.Records()
	if len(recs) != 3000 || tr.Len() != 3000 {
		t.Fatalf("Records %d, Len %d, want 3000", len(recs), tr.Len())
	}
	for i, r := range recs {
		if r.At != sim.Time(i) {
			t.Fatalf("record %d at %d", i, r.At)
		}
	}
	if again := tr.Records(); &again[0] != &recs[0] {
		t.Error("a second Records call flattened again")
	}
	hook := tr.Hook("h")
	for i := 3000; i < 5000; i++ {
		hook(tcp.ProbeEvent{At: sim.Time(i), Kind: tcp.ProbeAck})
	}
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")[1:]
	recs = tr.Records()
	if len(lines) != 5000 || len(recs) != 5000 || tr.Len() != 5000 {
		t.Fatalf("%d CSV rows, %d records, Len %d, want 5000", len(lines), len(recs), tr.Len())
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, strconv.Itoa(i)+",") || recs[i].At != sim.Time(i) {
			t.Fatalf("row %d: %q, record at %d", i, l, recs[i].At)
		}
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(jsonl.String(), "\n"); n != 5000 {
		t.Fatalf("%d JSONL lines, want 5000", n)
	}
}

// TestProbeTraceAllocatesRecordsOnce pins what chunked storage saves: the
// trace allocates its records' own bytes plus under 10 % of slack. Growing
// one slice by append allocated four times the records' bytes (3.6 MB for
// these 10,000 records).
func TestProbeTraceAllocatesRecordsOnce(t *testing.T) {
	const n = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewProbeTrace()
	fillProbes(tr, n)
	runtime.ReadMemStats(&after)
	own := float64(n * unsafe.Sizeof(ProbeRecord{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*own {
		t.Errorf("recording %d probes allocated %.0f B, want at most %.0f (1.1 × %.0f B of records)", n, got, 1.1*own, own)
	}
	runtime.KeepAlive(tr)
}

// TestRTTMonitorBeforeFirstSample: a watched flow reads all-zero gauges
// until its first window-advancing ACK, exactly as an empty histogram
// would, and then folds that sample in. Events that carry no RTT sample
// (no acked bytes) leave it unsampled.
func TestRTTMonitorBeforeFirstSample(t *testing.T) {
	reg := telemetry.NewRegistry()
	probe := NewRTTMonitor().Watch(reg, "f/", 1)
	read := func() []float64 {
		dst := make([]float64, reg.Len())
		for i := range dst {
			dst[i] = -1 // the block must set every column
		}
		return reg.ReadInto(dst)
	}
	probe(tcp.ProbeEvent{Kind: tcp.ProbeAck, SRTT: 50 * time.Microsecond})
	for i, v := range read() {
		if v != 0 {
			t.Errorf("unsampled flow: column %d = %v, want 0", i, v)
		}
	}
	probe(tcp.ProbeEvent{Kind: tcp.ProbeAck, AckedBytes: 1448, SRTT: 50 * time.Microsecond})
	got := read()
	if got[0] != 50000 || got[1] != 50000 || got[5] != 1 {
		t.Errorf("after one sample: last %v, min %v, samples %v; want 50000, 50000, 1", got[0], got[1], got[5])
	}
}

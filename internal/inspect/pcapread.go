package inspect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
)

// File is a parsed pcapng section, as produced by ReadPcap.
type File struct {
	Interfaces []Interface
	Packets    []Packet
}

// Interface is one parsed interface description block.
type Interface struct {
	Name    string
	SnapLen int
	// TsUnitNs is the duration of one timestamp tick in nanoseconds
	// (1 for if_tsresol 9, 1000 for the default microsecond resolution).
	TsUnitNs int64
}

// Packet is one parsed enhanced packet block, with its Ethernet/IPv4/TCP
// headers decoded when the captured bytes allow it.
type Packet struct {
	Interface int
	At        sim.Time // timestamp converted to nanoseconds
	CapLen    int
	OrigLen   int

	// Decoded reports whether the fields below are valid: the capture
	// held a complete Ethernet+IPv4+TCP header.
	Decoded    bool
	SrcIP      uint32
	DstIP      uint32
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	AckNum     uint32
	Flags      byte
	Window     uint16
	CE         bool
	SACK       []skb.Range
	TSVal      uint32
	PayloadLen int // from OrigLen minus decoded header sizes
}

// ReadPcap parses a little-endian pcapng section, validating the framing
// strictly (leading/trailing block lengths, 4-byte padding, SHB first,
// interfaces declared before use). It is the round-trip check for
// WritePcap and the first half of CheckPcap.
func ReadPcap(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("inspect: reading pcapng: %w", err)
	}
	f := &File{}
	off := 0
	first := true
	for off < len(data) {
		if len(data)-off < 12 {
			return nil, fmt.Errorf("inspect: trailing garbage at offset %d", off)
		}
		btype := binary.LittleEndian.Uint32(data[off:])
		total := int(binary.LittleEndian.Uint32(data[off+4:]))
		if total < 12 || total%4 != 0 || off+total > len(data) {
			return nil, fmt.Errorf("inspect: bad block length %d at offset %d", total, off)
		}
		trailer := int(binary.LittleEndian.Uint32(data[off+total-4:]))
		if trailer != total {
			return nil, fmt.Errorf("inspect: block at offset %d: leading length %d != trailing %d", off, total, trailer)
		}
		body := data[off+8 : off+total-4]
		if first {
			if btype != blockSHB {
				return nil, fmt.Errorf("inspect: file does not start with a section header block (type 0x%08X)", btype)
			}
			first = false
		}
		switch btype {
		case blockSHB:
			if len(body) < 16 {
				return nil, fmt.Errorf("inspect: short section header block")
			}
			magic := binary.LittleEndian.Uint32(body)
			if magic != byteOrderMagic {
				return nil, fmt.Errorf("inspect: unsupported byte-order magic 0x%08X (big-endian?)", magic)
			}
			if major := binary.LittleEndian.Uint16(body[4:]); major != 1 {
				return nil, fmt.Errorf("inspect: unsupported pcapng major version %d", major)
			}
		case blockIDB:
			iface, err := parseIDB(body)
			if err != nil {
				return nil, err
			}
			f.Interfaces = append(f.Interfaces, iface)
		case blockEPB:
			pkt, err := parseEPB(body, f.Interfaces)
			if err != nil {
				return nil, err
			}
			f.Packets = append(f.Packets, pkt)
		default:
			// Unknown block types are skippable by design; framing was
			// already validated above.
		}
		off += total
	}
	if first {
		return nil, fmt.Errorf("inspect: empty pcapng file")
	}
	return f, nil
}

func parseIDB(body []byte) (Interface, error) {
	if len(body) < 8 {
		return Interface{}, fmt.Errorf("inspect: short interface description block")
	}
	if lt := binary.LittleEndian.Uint16(body); lt != linkEthernet {
		return Interface{}, fmt.Errorf("inspect: unsupported link type %d (want Ethernet)", lt)
	}
	iface := Interface{
		SnapLen:  int(binary.LittleEndian.Uint32(body[4:])),
		TsUnitNs: 1000, // pcapng default: microseconds
	}
	opts := body[8:]
	for len(opts) >= 4 {
		code := binary.LittleEndian.Uint16(opts)
		olen := int(binary.LittleEndian.Uint16(opts[2:]))
		if 4+olen > len(opts) {
			return Interface{}, fmt.Errorf("inspect: interface option overruns block")
		}
		val := opts[4 : 4+olen]
		switch code {
		case optEnd:
			return iface, nil
		case optIfName:
			iface.Name = string(val)
		case optIfTsresol:
			if olen != 1 {
				return Interface{}, fmt.Errorf("inspect: bad if_tsresol length %d", olen)
			}
			switch val[0] {
			case 9:
				iface.TsUnitNs = 1
			case 6:
				iface.TsUnitNs = 1000
			default:
				return Interface{}, fmt.Errorf("inspect: unsupported if_tsresol %d", val[0])
			}
		}
		adv := 4 + olen
		for adv%4 != 0 {
			adv++
		}
		opts = opts[adv:]
	}
	return iface, nil
}

func parseEPB(body []byte, ifaces []Interface) (Packet, error) {
	if len(body) < 20 {
		return Packet{}, fmt.Errorf("inspect: short enhanced packet block")
	}
	ifc := int(binary.LittleEndian.Uint32(body))
	if ifc >= len(ifaces) {
		return Packet{}, fmt.Errorf("inspect: packet references undeclared interface %d", ifc)
	}
	ts := uint64(binary.LittleEndian.Uint32(body[4:]))<<32 | uint64(binary.LittleEndian.Uint32(body[8:]))
	capLen := int(binary.LittleEndian.Uint32(body[12:]))
	origLen := int(binary.LittleEndian.Uint32(body[16:]))
	if capLen > origLen {
		return Packet{}, fmt.Errorf("inspect: captured length %d exceeds original %d", capLen, origLen)
	}
	if snap := ifaces[ifc].SnapLen; snap > 0 && capLen > snap {
		return Packet{}, fmt.Errorf("inspect: captured length %d exceeds interface snaplen %d", capLen, snap)
	}
	padded := capLen
	for padded%4 != 0 {
		padded++
	}
	if 20+padded > len(body) {
		return Packet{}, fmt.Errorf("inspect: packet data overruns block")
	}
	pkt := Packet{
		Interface: ifc,
		At:        sim.Time(int64(ts) * ifaces[ifc].TsUnitNs),
		CapLen:    capLen,
		OrigLen:   origLen,
	}
	decodePacket(&pkt, body[20:20+capLen])
	return pkt, nil
}

// decodePacket best-effort decodes Ethernet/IPv4/TCP out of the captured
// bytes; it leaves Decoded false when the capture is too short or not
// IPv4/TCP.
func decodePacket(pkt *Packet, b []byte) {
	if len(b) < 14 || binary.BigEndian.Uint16(b[12:]) != 0x0800 {
		return
	}
	ip := b[14:]
	if len(ip) < 20 || ip[0]>>4 != 4 {
		return
	}
	ihl := int(ip[0]&0x0F) * 4
	if ihl < 20 || len(ip) < ihl || ip[9] != 6 {
		return
	}
	pkt.CE = ip[1]&0x03 == 0x03
	pkt.SrcIP = binary.BigEndian.Uint32(ip[12:])
	pkt.DstIP = binary.BigEndian.Uint32(ip[16:])
	tcp := ip[ihl:]
	if len(tcp) < 20 {
		return
	}
	doff := int(tcp[12]>>4) * 4
	if doff < 20 || len(tcp) < doff {
		return
	}
	pkt.SrcPort = binary.BigEndian.Uint16(tcp[0:])
	pkt.DstPort = binary.BigEndian.Uint16(tcp[2:])
	pkt.Seq = binary.BigEndian.Uint32(tcp[4:])
	pkt.AckNum = binary.BigEndian.Uint32(tcp[8:])
	pkt.Flags = tcp[13]
	pkt.Window = binary.BigEndian.Uint16(tcp[14:])
	opts := tcp[20:doff]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				opts = nil
				break
			}
			olen := int(opts[1])
			switch {
			case opts[0] == 8 && olen == 10:
				pkt.TSVal = binary.BigEndian.Uint32(opts[2:])
			case opts[0] == 5 && (olen-2)%8 == 0:
				for i := 2; i+8 <= olen; i += 8 {
					pkt.SACK = append(pkt.SACK, skb.Range{
						Start: int64(binary.BigEndian.Uint32(opts[i:])),
						End:   int64(binary.BigEndian.Uint32(opts[i+4:])),
					})
				}
			}
			opts = opts[olen:]
		}
	}
	pkt.PayloadLen = pkt.OrigLen - 14 - ihl - doff
	pkt.Decoded = true
}

// Validate applies the inspector's own invariants on top of spec
// conformance: at least one interface and packet, every packet decoded,
// and per-interface timestamps nondecreasing (captures record in event
// order).
func (f *File) Validate() error {
	if len(f.Interfaces) == 0 {
		return fmt.Errorf("inspect: no interfaces")
	}
	if len(f.Packets) == 0 {
		return fmt.Errorf("inspect: no packets")
	}
	last := make([]sim.Time, len(f.Interfaces))
	for i := range last {
		last[i] = -1
	}
	for i, p := range f.Packets {
		if !p.Decoded {
			return fmt.Errorf("inspect: packet %d did not decode as Ethernet/IPv4/TCP", i)
		}
		if p.At < last[p.Interface] {
			return fmt.Errorf("inspect: packet %d goes back in time on interface %d", i, p.Interface)
		}
		last[p.Interface] = p.At
	}
	return nil
}

// CheckPcap checks a capture written by WritePcap: ReadPcap's strict
// framing, then File.Validate.
func CheckPcap(data []byte) (string, error) {
	f, err := ReadPcap(bytes.NewReader(data))
	if err == nil {
		err = f.Validate()
	}
	if err != nil {
		return "", err
	}
	var payload, acks, ce int
	for _, p := range f.Packets {
		payload += p.PayloadLen
		if p.PayloadLen == 0 {
			acks++
		}
		if p.CE {
			ce++
		}
	}
	return fmt.Sprintf("%d packets on %d interfaces, %d payload bytes, %d pure acks, %d CE-marked",
		len(f.Packets), len(f.Interfaces), payload, acks, ce), nil
}

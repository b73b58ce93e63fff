package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"slices"
)

// ParsedProfile is the result of decoding a pprof profile.proto — enough
// structure to validate round-trips and back CheckPprof without
// depending on github.com/google/pprof.
type ParsedProfile struct {
	SampleTypes       []ParsedValueType
	Samples           []ParsedSample
	PeriodType        ParsedValueType
	Period            int64
	DefaultSampleType string
	StringTable       []string
}

// ParsedValueType is a decoded ValueType with string indices resolved.
type ParsedValueType struct{ Type, Unit string }

// ParsedSample is one decoded sample with its stack resolved to function
// names, root first (the reverse of the wire order).
type ParsedSample struct {
	Stack  []string
	Values []int64
}

// ParseData decodes a pprof profile.proto, gzipped or raw, and resolves
// samples to named stacks. It errors on malformed protobuf, dangling
// location/function/string references, or samples whose value count does
// not match the declared sample types.
func ParseData(data []byte) (*ParsedProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: bad gzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: gzip read: %w", err)
		}
		data = raw
	}

	p := &ParsedProfile{StringTable: []string{}}
	var rawSamples, rawLocs, rawFuncs, rawVTs [][]byte
	var rawPeriodType []byte
	var defaultSampleType int64

	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profSampleType:
			rawVTs = append(rawVTs, b)
		case profSample:
			rawSamples = append(rawSamples, b)
		case profLocation:
			rawLocs = append(rawLocs, b)
		case profFunction:
			rawFuncs = append(rawFuncs, b)
		case profStringTable:
			p.StringTable = append(p.StringTable, string(b))
		case profPeriodType:
			rawPeriodType = b
		case profPeriod:
			p.Period = int64(v)
		case profDefaultSampleType:
			defaultSampleType = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.StringTable) == 0 || p.StringTable[0] != "" {
		return nil, fmt.Errorf("profile: string table must start with %q", "")
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(p.StringTable)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return p.StringTable[i], nil
	}

	parseVT := func(b []byte) (ParsedValueType, error) {
		var typ, unit int64
		err := eachField(b, func(field, wire int, v uint64, _ []byte) error {
			switch field {
			case vtType:
				typ = int64(v)
			case vtUnit:
				unit = int64(v)
			}
			return nil
		})
		if err != nil {
			return ParsedValueType{}, err
		}
		ts, err := str(typ)
		if err != nil {
			return ParsedValueType{}, err
		}
		us, err := str(unit)
		if err != nil {
			return ParsedValueType{}, err
		}
		return ParsedValueType{Type: ts, Unit: us}, nil
	}
	for _, b := range rawVTs {
		vt, err := parseVT(b)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, vt)
	}
	if rawPeriodType != nil {
		if p.PeriodType, err = parseVT(rawPeriodType); err != nil {
			return nil, err
		}
	}
	if p.DefaultSampleType, err = str(defaultSampleType); err != nil {
		return nil, err
	}

	// Functions: id → name.
	funcName := map[uint64]string{}
	for _, fb := range rawFuncs {
		var id uint64
		var name int64
		err := eachField(fb, func(field, wire int, v uint64, _ []byte) error {
			switch field {
			case functionID:
				id = v
			case functionName:
				name = int64(v)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		n, err := str(name)
		if err != nil {
			return nil, err
		}
		funcName[id] = n
	}

	// Locations: id → frame name, via the first line's function.
	locName := map[uint64]string{}
	for _, lb := range rawLocs {
		var id, fnID uint64
		err := eachField(lb, func(field, wire int, v uint64, b []byte) error {
			switch field {
			case locationID:
				id = v
			case locationLine:
				return eachField(b, func(field, wire int, v uint64, _ []byte) error {
					if field == lineFunctionID && fnID == 0 {
						fnID = v
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		n, ok := funcName[fnID]
		if !ok {
			return nil, fmt.Errorf("profile: location %d references unknown function %d", id, fnID)
		}
		locName[id] = n
	}

	for _, sb := range rawSamples {
		var ids []uint64
		var vals []int64
		err := eachField(sb, func(field, wire int, v uint64, b []byte) error {
			switch field {
			case sampleLocationID:
				if wire == 2 {
					return eachVarint(b, func(u uint64) { ids = append(ids, u) })
				}
				ids = append(ids, v)
			case sampleValue:
				if wire == 2 {
					return eachVarint(b, func(u uint64) { vals = append(vals, int64(u)) })
				}
				vals = append(vals, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(p.SampleTypes) > 0 && len(vals) != len(p.SampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values, want %d", len(vals), len(p.SampleTypes))
		}
		stack := make([]string, len(ids))
		for i, id := range ids {
			n, ok := locName[id]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", id)
			}
			// Wire order is leaf first; expose root first.
			stack[len(ids)-1-i] = n
		}
		p.Samples = append(p.Samples, ParsedSample{Stack: stack, Values: vals})
	}
	return p, nil
}

// CheckPprof checks a profile written by WritePprof on top of ParseData.
// The sample types are cycles/count then time/nanoseconds, with cycles
// the default. There is at least one sample. Every stack is
// host;ctx;category, optionally with a flow class, and every sample has
// positive cycles.
func CheckPprof(data []byte) (string, error) {
	p, err := ParseData(data)
	if err != nil {
		return "", err
	}
	want := []ParsedValueType{{"cycles", "count"}, {"time", "nanoseconds"}}
	if !slices.Equal(p.SampleTypes, want) || p.DefaultSampleType != "cycles" {
		return "", fmt.Errorf("profile: sample types %v (default %q), want %v (default cycles)",
			p.SampleTypes, p.DefaultSampleType, want)
	}
	if len(p.Samples) == 0 {
		return "", fmt.Errorf("profile: no samples")
	}
	var total int64
	for i, s := range p.Samples {
		if len(s.Stack) != 3 && len(s.Stack) != 4 {
			return "", fmt.Errorf("profile: sample %d has %d frames, want 3 or 4", i, len(s.Stack))
		}
		if s.Values[0] <= 0 {
			return "", fmt.Errorf("profile: sample %d has non-positive cycles %d", i, s.Values[0])
		}
		total += s.Values[0]
	}
	return fmt.Sprintf("%d samples, %d cycles", len(p.Samples), total), nil
}

// eachField iterates the top-level fields of a protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the payload.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := readVarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: truncated field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0: // varint
			v, n := readVarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: truncated varint (field %d)", field)
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(data) < 8 {
				return fmt.Errorf("profile: truncated fixed64 (field %d)", field)
			}
			data = data[8:]
		case 2: // length-delimited
			l, n := readVarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: truncated bytes (field %d)", field)
			}
			if err := fn(field, wire, 0, data[n:n+int(l)]); err != nil {
				return err
			}
			data = data[n+int(l):]
		case 5: // fixed32
			if len(data) < 4 {
				return fmt.Errorf("profile: truncated fixed32 (field %d)", field)
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d (field %d)", wire, field)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := readVarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: truncated packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i]&0x80 == 0 {
			return v, i + 1
		}
	}
	return 0, 0
}

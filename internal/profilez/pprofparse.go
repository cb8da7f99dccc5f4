package profilez

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// The standard library can *write* pprof profiles but not read them, and
// this repo takes no external deps, so label assertions in tests and
// `make profile` use this deliberately minimal reader: it understands
// just enough of the profile.proto wire format to pull out sample labels
// and sample counts. Field numbers from
// github.com/google/pprof/proto/profile.proto:
//
//	Profile: sample = 2 (message), string_table = 6 (string)
//	Sample:  label = 3 (message)
//	Label:   key = 1 (strtab index), str = 2 (strtab index)

// LabelCount maps label key -> value -> number of samples carrying that
// pair.
type LabelCount map[string]map[string]int

// ProfileInfo is the decoded summary of one pprof profile.
type ProfileInfo struct {
	// Samples is the total number of samples in the profile.
	Samples int
	// Labels counts, per label key and value, how many samples carried
	// that pair.
	Labels LabelCount
}

// HasLabel reports whether at least one sample carries key=value.
func (p *ProfileInfo) HasLabel(key, value string) bool {
	return p.Labels[key][value] > 0
}

// ReadProfile parses a (possibly gzipped) pprof protobuf profile and
// returns its sample/label summary.
func ReadProfile(r io.Reader) (*ProfileInfo, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("profilez: gunzip profile: %w", err)
		}
		defer gz.Close()
		r = gz
	} else {
		r = br
	}
	raw, err := io.ReadAll(io.LimitReader(r, 256<<20))
	if err != nil {
		return nil, fmt.Errorf("profilez: read profile: %w", err)
	}
	return parseProfile(raw)
}

type labelRef struct{ key, str int64 }

func parseProfile(raw []byte) (*ProfileInfo, error) {
	info := &ProfileInfo{Labels: LabelCount{}}
	var strtab []string
	var sampleLabels [][]labelRef

	err := walkFields(raw, func(field int, wire int, v uint64, chunk []byte) error {
		switch {
		case field == 6 && wire == 2: // string_table
			strtab = append(strtab, string(chunk))
		case field == 2 && wire == 2: // sample
			refs, err := parseSampleLabels(chunk)
			if err != nil {
				return err
			}
			sampleLabels = append(sampleLabels, refs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	info.Samples = len(sampleLabels)
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strtab)) {
			return ""
		}
		return strtab[i]
	}
	for _, refs := range sampleLabels {
		for _, l := range refs {
			k, v := str(l.key), str(l.str)
			if k == "" || v == "" {
				continue // numeric labels (str==0) are out of scope here
			}
			m := info.Labels[k]
			if m == nil {
				m = map[string]int{}
				info.Labels[k] = m
			}
			m[v]++
		}
	}
	return info, nil
}

func parseSampleLabels(sample []byte) ([]labelRef, error) {
	var refs []labelRef
	err := walkFields(sample, func(field int, wire int, v uint64, chunk []byte) error {
		if field != 3 || wire != 2 { // Sample.label
			return nil
		}
		var l labelRef
		err := walkFields(chunk, func(f int, w int, lv uint64, _ []byte) error {
			if w != 0 {
				return nil
			}
			switch f {
			case 1:
				l.key = int64(lv)
			case 2:
				l.str = int64(lv)
			}
			return nil
		})
		if err != nil {
			return err
		}
		refs = append(refs, l)
		return nil
	})
	return refs, err
}

// walkFields iterates the top-level fields of one protobuf message,
// invoking fn with the field number, wire type, varint value (wire 0)
// or payload bytes (wire 2).
func walkFields(buf []byte, fn func(field, wire int, v uint64, chunk []byte) error) error {
	for len(buf) > 0 {
		tag, n := readVarint(buf)
		if n <= 0 {
			return errors.New("profilez: truncated protobuf tag")
		}
		buf = buf[n:]
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0: // varint
			v, n := readVarint(buf)
			if n <= 0 {
				return errors.New("profilez: truncated varint")
			}
			buf = buf[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(buf) < 8 {
				return errors.New("profilez: truncated fixed64")
			}
			buf = buf[8:]
		case 2: // length-delimited
			l, n := readVarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profilez: truncated length-delimited field")
			}
			chunk := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, wire, 0, chunk); err != nil {
				return err
			}
		case 5: // fixed32
			if len(buf) < 4 {
				return errors.New("profilez: truncated fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profilez: unsupported wire type %d", wire)
		}
	}
	return nil
}

func readVarint(buf []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(buf) && i < 10; i++ {
		b := buf[i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

package main

// CPU attribution for the traced run: the benchmark profiles its own
// process with runtime/pprof, decodes the profile (gzipped protobuf,
// decoded here with a minimal wire-format reader so the benchmark
// needs nothing beyond the standard library) and charges every sample
// to one bucket:
//
//   - the package of the innermost frame that belongs to this
//     repository, so runtime work (malloc, memmove, memclr, GC assist)
//     counts against the layer that caused it;
//   - "runtime.gc" for background GC (mark workers, sweeper,
//     scavenger), which no repository frame caused directly;
//   - "other" for anything else (scheduler idle, signal handling).

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a running profile of this process.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each bucket's share of samples.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes())
}

// layerOf maps a fully qualified function name to its bucket, or ""
// when the function is not part of this repository.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	const repo = "repro/internal/"
	if !strings.HasPrefix(fn, repo) {
		return ""
	}
	rest := fn[len(repo):]
	// The package path ends at the first '.' after its last '/'.
	end := strings.IndexAny(rest, "([")
	if end < 0 {
		end = len(rest)
	}
	slash := strings.LastIndexByte(rest[:end], '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	path := rest[:slash+1+dot]
	// Sub-packages (accel/search, lint/linttest) roll up to their
	// top-level layer.
	if i := strings.IndexByte(path, '/'); i >= 0 {
		path = path[:i]
	}
	return path
}

func isBackgroundGC(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

// attribute decodes a gzipped pprof profile and returns bucket shares
// of the sample count.
func attribute(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		w := s.values[0]
		bucket := "other"
	walk:
		for _, locID := range s.locs { // leaf first
			for _, fnID := range prof.locFuncs[locID] { // innermost inline frame first
				name := prof.strings[prof.funcNames[fnID]]
				if l := layerOf(name); l != "" {
					bucket = l
					break walk
				}
				if isBackgroundGC(name) {
					bucket = "runtime.gc"
					break walk
				}
			}
		}
		counts[bucket] += w
		total += w
	}
	out := map[string]float64{}
	if total == 0 {
		return out, 0, nil
	}
	for k, v := range counts {
		out[k] = float64(v) / float64(total)
	}
	return out, total, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

var errProto = errors.New("profile: malformed protobuf")

// pbuf is a protobuf wire-format cursor.
type pbuf struct {
	b []byte
	i int
}

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, errProto
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads one field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). Fixed-width fields are skipped.
func (p *pbuf) field() (num int, wt int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = p.varint()
	case 1:
		p.i += 8
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)-p.i) < n {
				return 0, 0, 0, nil, errProto
			}
			payload = p.b[p.i : p.i+int(n)]
			p.i += int(n)
		}
	case 5:
		p.i += 4
	default:
		err = errProto
	}
	if p.i > len(p.b) {
		err = errProto
	}
	return num, wt, v, payload, err
}

// repeatedInts appends a repeated integer field in either encoding.
func repeatedInts(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: payload}
	for q.i < len(q.b) {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	prof := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	p := pbuf{b: raw}
	for p.i < len(p.b) {
		num, _, _, payload, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s profSample
			q := pbuf{b: payload}
			for q.i < len(q.b) {
				n, w, x, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeatedInts(s.locs, w, x, pl); err != nil {
						return nil, err
					}
				case 2:
					var vals []uint64
					if vals, err = repeatedInts(nil, w, x, pl); err != nil {
						return nil, err
					}
					for _, u := range vals {
						s.values = append(s.values, int64(u))
					}
				}
			}
			prof.samples = append(prof.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			q := pbuf{b: payload}
			for q.i < len(q.b) {
				n, _, x, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // line
					r := pbuf{b: pl}
					for r.i < len(r.b) {
						ln, _, lx, _, err := r.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			prof.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			q := pbuf{b: payload}
			for q.i < len(q.b) {
				n, _, x, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = int64(x)
				}
			}
			prof.funcNames[id] = name
		case 6: // string table
			prof.strings = append(prof.strings, string(payload))
		}
	}
	for _, idx := range prof.funcNames {
		if idx < 0 || idx >= int64(len(prof.strings)) {
			return nil, errProto
		}
	}
	return prof, nil
}

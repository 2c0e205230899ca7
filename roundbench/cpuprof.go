package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers a CPU sample can be charged to, in report
// order.
var cpuLayers = []string{
	"crypto.vrf", "crypto.sig", "crypto", "pow", "pvss", "committee",
	"consensus", "ledger", "workload", "reputation", "chain", "simnet",
	"protocol", "runtime.gc", "runtime.other",
}

const repoPrefix = "cycledger/internal/"

// packageLayers maps a repository package to the layer its frames are
// charged to when no named entry point is on the stack (pow and pvss
// frames always are one). The transport adapter is the simulator's;
// packages not listed here (the codec, the sim facade, this benchmark)
// are no layer, and the search continues towards the root.
var packageLayers = map[string]string{
	"crypto": "crypto", "committee": "committee", "consensus": "consensus",
	"ledger": "ledger", "workload": "workload", "reputation": "reputation",
	"chain": "chain", "simnet": "simnet", "transport": "simnet", "protocol": "protocol",
}

// receiverParens strips a pointer receiver's "(*T)" down to "T".
var receiverParens = strings.NewReplacer("(*", "", ")", "")

// layerOf charges one sample, given its function names leaf first. The
// innermost named entry point wins: crypto.VRFProve/VRFVerify, any pow or
// pvss frame, or a consensus scheme's Sign/Verify. Failing that the
// innermost repository package in packageLayers wins, and failing that
// the runtime, split into garbage collection and the rest.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l := entryPoint(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if l, ok := packageLayers[repoPackage(fn)]; ok {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

func entryPoint(fn string) string {
	switch repoPackage(fn) {
	case "crypto":
		if fn == repoPrefix+"crypto.VRFProve" || fn == repoPrefix+"crypto.VRFVerify" {
			return "crypto.vrf"
		}
	case "pow":
		return "pow"
	case "pvss":
		return "pvss"
	case "consensus":
		// Methods print as consensus.HashScheme.Verify, or with a pointer
		// receiver as consensus.(*HashScheme).Verify.
		name := receiverParens.Replace(strings.TrimPrefix(fn, repoPrefix+"consensus."))
		typ, method, ok := strings.Cut(name, ".")
		if ok && strings.HasSuffix(typ, "Scheme") &&
			(method == "Sign" || method == "AppendSign" || method == "Verify") {
			return "crypto.sig"
		}
	}
	return ""
}

// repoPackage returns the last path element of a repository package's
// function name ("committee" for cycledger/internal/committee.F), or ""
// for a function outside cycledger/internal.
func repoPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the samples in percent, with the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total int64
	for _, s := range stacks {
		shares[layerOf(s.frames)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for l := range shares {
			shares[l] *= 100 / float64(total)
		}
	}
	return shares, total, nil
}

// A stackSample is one profile sample: its function names leaf first
// (inlined frames expanded) and its sample count.
type stackSample struct {
	frames []string
	count  int64
}

// decodeProfile reads the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) a CPU profile needs:
// samples, locations with their inlined lines, functions and the string
// table.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location → function IDs, leaf first
		fnName  = map[uint64]uint64{}   // function → string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendRepeated(&s.locs, v, b)
				case 2:
					return appendRepeated(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				frames = append(frames, strs[idx])
			}
		}
		out = append(out, stackSample{frames: frames, count: int64(s.values[0])})
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; the CPU profile subset uses none.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated adds a repeated varint field in either encoding: one
// value per field, or packed into a length-delimited run.
func appendRepeated(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
)

// The on-disk entry format, designed so a reader can always tell a good
// entry from a torn, truncated or foreign one before trusting a single
// payload byte:
//
//	offset  size  field
//	0       4     magic "BSRS" (battsched result store)
//	4       4     format version, little-endian uint32 (currently 1)
//	8       8     payload length, little-endian uint64
//	16      4     CRC-32 (IEEE) of the payload
//	20      ...   payload (entryVersion-specific encoding of engine.Result)
//
// A write lands atomically (tmp file + rename), so the interesting
// failure is a crash mid-write of the tmp file or bit rot in place:
// both are caught by the length and checksum before decode, and a
// version bump makes old entries read as misses instead of
// misinterpreted bytes. Every decode failure is ErrCorrupt — the store
// turns it into "miss, delete the file", never an answer.
const (
	entryMagic   = "BSRS"
	entryVersion = 1
	headerSize   = 20
)

// ErrCorrupt marks an entry that failed structural validation —
// truncated, checksum mismatch, wrong magic/version, or a payload that
// does not decode. Match with errors.Is.
var ErrCorrupt = errors.New("store: corrupt entry")

// corruptf wraps a decode failure under ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// encodeEntry serializes a canonical (request-neutral) result into a
// complete entry: header plus versioned payload. The payload writes
// every result-affecting field of engine.Result; Name is excluded
// because stored results are request-neutral (the cache strips it
// before storing, and every front end re-attaches its own — see
// cache.Cache.DoContext).
//
//battlint:canonical engine.Result -Name
func encodeEntry(res engine.Result) []byte {
	payload := make([]byte, 0, 256)
	payload = appendString(payload, res.Strategy)
	payload = appendF64(payload, res.Cost)
	payload = appendF64(payload, res.Duration)
	payload = appendF64(payload, res.Energy)
	payload = appendU64(payload, uint64(int64(res.Iterations)))

	if res.Schedule == nil {
		payload = append(payload, 0)
	} else {
		payload = append(payload, 1)
		payload = appendU64(payload, uint64(len(res.Schedule.Order)))
		for _, id := range res.Schedule.Order {
			payload = appendU64(payload, uint64(int64(id)))
		}
		// Maps have no order; sort keys so the encoding is canonical
		// (byte-identical for equal results).
		keys := make([]int, 0, len(res.Schedule.Assignment))
		for k := range res.Schedule.Assignment {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		payload = appendU64(payload, uint64(len(keys)))
		for _, k := range keys {
			payload = appendU64(payload, uint64(int64(k)))
			payload = appendU64(payload, uint64(int64(res.Schedule.Assignment[k])))
		}
	}

	if res.Idle == nil {
		payload = append(payload, 0)
	} else {
		payload = append(payload, 1)
		payload = appendU64(payload, uint64(len(res.Idle.After)))
		for _, v := range res.Idle.After {
			payload = appendF64(payload, v)
		}
		payload = appendF64(payload, res.Idle.Cost)
		payload = appendF64(payload, res.Idle.BaseCost)
	}

	if res.Err == nil {
		payload = append(payload, 0)
	} else {
		payload = append(payload, 1)
		payload = appendString(payload, res.Err.Error())
	}

	out := make([]byte, headerSize, headerSize+len(payload))
	copy(out[0:4], entryMagic)
	binary.LittleEndian.PutUint32(out[4:8], entryVersion)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// decodeEntry validates and deserializes one complete entry. Every
// failure is ErrCorrupt; a successful decode returns a result whose
// pointer fields are freshly allocated (nothing aliases the input
// buffer or any other decode).
func decodeEntry(data []byte) (engine.Result, error) {
	var zero engine.Result
	if len(data) < headerSize {
		return zero, corruptf("truncated header: %d bytes", len(data))
	}
	if string(data[0:4]) != entryMagic {
		return zero, corruptf("bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != entryVersion {
		return zero, corruptf("unsupported version %d (want %d)", v, entryVersion)
	}
	payload := data[headerSize:]
	if n := binary.LittleEndian.Uint64(data[8:16]); n != uint64(len(payload)) {
		return zero, corruptf("payload length %d, header says %d", len(payload), n)
	}
	if c := binary.LittleEndian.Uint32(data[16:20]); c != crc32.ChecksumIEEE(payload) {
		return zero, corruptf("checksum mismatch")
	}

	d := decoder{buf: payload}
	var res engine.Result
	res.Strategy = d.str()
	res.Cost = d.f64()
	res.Duration = d.f64()
	res.Energy = d.f64()
	res.Iterations = int(int64(d.u64()))

	if d.flag() {
		s := &sched.Schedule{}
		n := d.count(8)
		s.Order = make([]int, n)
		for i := range s.Order {
			s.Order[i] = int(int64(d.u64()))
		}
		m := d.count(16)
		s.Assignment = make(map[int]int, m)
		for i := 0; i < m; i++ {
			k := int(int64(d.u64()))
			s.Assignment[k] = int(int64(d.u64()))
		}
		res.Schedule = s
	}

	if d.flag() {
		idle := &core.IdlePlan{}
		n := d.count(8)
		idle.After = make([]float64, n)
		for i := range idle.After {
			idle.After[i] = d.f64()
		}
		idle.Cost = d.f64()
		idle.BaseCost = d.f64()
		res.Idle = idle
	}

	if d.flag() {
		res.Err = errors.New(d.str())
	}

	if d.err != nil {
		return zero, d.err
	}
	if d.off != len(d.buf) {
		return zero, corruptf("%d trailing payload bytes", len(d.buf)-d.off)
	}
	return res, nil
}

// decoder is a bounds-checked little-endian reader; the first failure
// sticks and every later read returns zero values.
type decoder struct {
	buf []byte
	off int
	err error
}

// take returns the next n bytes, or nil after recording a corruption.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = corruptf("truncated payload at offset %d (want %d more bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// flag reads a presence byte, rejecting anything but 0/1 so a bit flip
// that survives the checksum (or a hand-built payload) cannot smuggle
// in surprising control flow.
func (d *decoder) flag() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.err = corruptf("invalid presence flag %d at offset %d", b[0], d.off-1)
		return false
	}
}

// count reads an element count and sanity-bounds it against the bytes
// actually remaining (each element is at least elemSize bytes), so a
// corrupt length field cannot force a huge allocation.
func (d *decoder) count(elemSize int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if max := uint64(len(d.buf)-d.off) / uint64(elemSize); n > max {
		d.err = corruptf("count %d exceeds remaining payload (max %d)", n, max)
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string.
func (d *decoder) str() string {
	n := d.count(1)
	return string(d.take(n))
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	dst = appendU64(dst, uint64(len(s)))
	return append(dst, s...)
}

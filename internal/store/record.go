package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"bcclap/internal/graph"
)

// RecordType discriminates the tenant lifecycle events a WAL carries.
type RecordType uint8

const (
	// RecRegister creates a tenant: name, version (always 1), resolved
	// options and the full digraph.
	RecRegister RecordType = iota + 1
	// RecSwap replaces a tenant's digraph and options wholesale, at a new
	// version.
	RecSwap
	// RecPatch applies arc-level capacity/cost deltas to a tenant's
	// digraph, at a new version.
	RecPatch
	// RecDeregister retires a tenant.
	RecDeregister
	// RecLimits replaces a tenant's admission limits. Limits do not
	// affect certified results, so the tenant's version is unchanged.
	RecLimits
)

func (t RecordType) String() string {
	switch t {
	case RecRegister:
		return "register"
	case RecSwap:
		return "swap"
	case RecPatch:
		return "patch"
	case RecDeregister:
		return "deregister"
	case RecLimits:
		return "limits"
	}
	return fmt.Sprintf("RecordType(%d)", uint8(t))
}

// TenantLimits is the serializable per-tenant QoS limit set in the
// option-surface convention (WithRateLimit, WithMaxInFlight,
// WithQueueDepth: queue depth 0 with QueueSet means no queue). A field
// whose *Set flag is false replays as the gate default (zero).
type TenantLimits struct {
	Rate        float64
	Burst       int
	MaxInFlight int
	QueueDepth  int
	RateSet     bool
	InFlightSet bool
	QueueSet    bool
}

// TenantOpts is the serializable slice of a tenant's resolved solver
// configuration — everything needed to rebuild the tenant bit-identically
// on replay. Non-serializable options (progress callbacks, round
// simulators, advanced LP/sparsifier parameter structs) are intentionally
// absent: they do not affect certified results. Shards is kept for the
// format: versions that had a shard option ran max(Pool, Shards) workers;
// it is now written as 0.
type TenantOpts struct {
	Backend      string
	Seed         int64
	Tol          float64
	Retries      int
	Pool         int
	Shards       int
	CacheSize    int
	CacheSizeSet bool
	Limits       TenantLimits
}

// Record is one WAL entry: a tenant lifecycle event with the payload its
// type needs. LSN is assigned by Log.Append (strictly increasing across
// the log's lifetime, snapshots included); callers leave it zero.
type Record struct {
	LSN     uint64
	Type    RecordType
	Name    string
	Version uint64

	// Opts, N and Arcs carry the full tenant definition (RecRegister,
	// RecSwap).
	Opts TenantOpts
	N    int
	Arcs []graph.Arc

	// Deltas carries the arc mutations (RecPatch).
	Deltas []graph.ArcDelta
}

// Decoder hard limits: a frame that passed its CRC can still be hostile
// input (the fuzz target feeds arbitrary bytes straight to DecodeRecord),
// so every count is bounded before allocation.
const (
	maxNameLen   = 256
	maxVertices  = 1 << 30
	maxRecordLen = 64 << 20
)

// encodeRecord appends the payload encoding of r to buf.
func encodeRecord(buf []byte, r *Record) []byte {
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = append(buf, byte(r.Type))
	buf = appendString(buf, r.Name)
	buf = binary.AppendUvarint(buf, r.Version)
	switch r.Type {
	case RecRegister, RecSwap:
		buf = appendOpts(buf, r.Opts)
		buf = appendDigraph(buf, r.N, r.Arcs)
	case RecPatch:
		buf = binary.AppendUvarint(buf, uint64(len(r.Deltas)))
		for _, d := range r.Deltas {
			buf = binary.AppendUvarint(buf, uint64(d.Arc))
			buf = binary.AppendVarint(buf, d.CapDelta)
			buf = binary.AppendVarint(buf, d.CostDelta)
		}
	case RecLimits:
		buf = appendLimits(buf, r.Opts.Limits)
	}
	return buf
}

// DecodeRecord parses one WAL record payload (the framed bytes, after the
// length/CRC header). It validates structure exhaustively — string and
// slice lengths against the remaining input, arc endpoints against the
// vertex count, capacities positive — so that a record accepted here
// always replays cleanly; arbitrary input (the fuzz target) errors instead
// of panicking or over-allocating.
func DecodeRecord(payload []byte) (*Record, error) {
	d := &decoder{buf: payload}
	r := &Record{}
	r.LSN = d.uvarint("lsn")
	t := d.byte("type")
	r.Type = RecordType(t)
	if r.Type < RecRegister || r.Type > RecLimits {
		return nil, d.failf("unknown record type %d", t)
	}
	r.Name = d.name()
	r.Version = d.uvarint("version")
	switch r.Type {
	case RecRegister, RecSwap:
		r.Opts = d.opts()
		r.N, r.Arcs = d.digraph()
	case RecPatch:
		k := d.count("delta count")
		if d.err == nil {
			r.Deltas = make([]graph.ArcDelta, k)
			for i := range r.Deltas {
				r.Deltas[i].Arc = int(d.uvarintMax("delta arc", maxVertices*maxVertices))
				r.Deltas[i].CapDelta = d.varint("cap delta")
				r.Deltas[i].CostDelta = d.varint("cost delta")
			}
		}
	case RecLimits:
		r.Opts.Limits = d.limits()
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("store: record has %d trailing bytes", len(d.buf))
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendOpts(buf []byte, o TenantOpts) []byte {
	buf = appendString(buf, o.Backend)
	buf = binary.AppendVarint(buf, o.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Tol))
	buf = binary.AppendVarint(buf, int64(o.Retries))
	buf = binary.AppendVarint(buf, int64(o.Pool))
	buf = binary.AppendVarint(buf, int64(o.Shards))
	buf = binary.AppendVarint(buf, int64(o.CacheSize))
	var set byte
	if o.CacheSizeSet {
		set = 1
	}
	buf = append(buf, set)
	return appendLimits(buf, o.Limits)
}

func appendLimits(buf []byte, l TenantLimits) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.Rate))
	buf = binary.AppendVarint(buf, int64(l.Burst))
	buf = binary.AppendVarint(buf, int64(l.MaxInFlight))
	buf = binary.AppendVarint(buf, int64(l.QueueDepth))
	var set byte
	if l.RateSet {
		set |= 1
	}
	if l.InFlightSet {
		set |= 2
	}
	if l.QueueSet {
		set |= 4
	}
	return append(buf, set)
}

func appendDigraph(buf []byte, n int, arcs []graph.Arc) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(arcs)))
	for _, a := range arcs {
		buf = binary.AppendUvarint(buf, uint64(a.From))
		buf = binary.AppendUvarint(buf, uint64(a.To))
		buf = binary.AppendVarint(buf, a.Cap)
		buf = binary.AppendVarint(buf, a.Cost)
	}
	return buf
}

// decoder is a cursor over a record payload with sticky error handling:
// after the first failure every accessor returns zero values, so decode
// call sites stay linear.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) failf(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("store: "+format, args...)
	}
	return d.err
}

func (d *decoder) byte(field string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.failf("truncated %s", field)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.failf("bad uvarint %s", field)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) uvarintMax(field string, max uint64) uint64 {
	v := d.uvarint(field)
	if d.err == nil && v > max {
		d.failf("%s %d exceeds limit %d", field, v, max)
		return 0
	}
	return v
}

func (d *decoder) varint(field string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.failf("bad varint %s", field)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a collection length and bounds it by the remaining input
// (every element encodes to at least one byte), preventing attacker-sized
// allocations.
func (d *decoder) count(field string) int {
	v := d.uvarint(field)
	if d.err == nil && v > uint64(len(d.buf)) {
		d.failf("%s %d exceeds remaining %d bytes", field, v, len(d.buf))
		return 0
	}
	return int(v)
}

func (d *decoder) string(field string, max int) string {
	n := d.count(field + " length")
	if d.err != nil {
		return ""
	}
	if n > max {
		d.failf("%s %d bytes exceeds limit %d", field, n, max)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) name() string {
	s := d.string("name", maxNameLen)
	if d.err == nil && s == "" {
		d.failf("empty tenant name")
	}
	return s
}

func (d *decoder) opts() TenantOpts {
	var o TenantOpts
	o.Backend = d.string("backend", maxNameLen)
	o.Seed = d.varint("seed")
	if d.err == nil {
		if len(d.buf) < 8 {
			d.failf("truncated tolerance")
		} else {
			o.Tol = math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
			d.buf = d.buf[8:]
		}
	}
	o.Retries = int(d.varint("retries"))
	o.Pool = int(d.varint("pool"))
	o.Shards = int(d.varint("shards"))
	o.CacheSize = int(d.varint("cache size"))
	o.CacheSizeSet = d.byte("cache size set") != 0
	o.Limits = d.limits()
	return o
}

func (d *decoder) limits() TenantLimits {
	var l TenantLimits
	if d.err == nil {
		if len(d.buf) < 8 {
			d.failf("truncated rate limit")
		} else {
			l.Rate = math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
			d.buf = d.buf[8:]
			if math.IsNaN(l.Rate) || math.IsInf(l.Rate, 0) || l.Rate < 0 {
				d.failf("invalid rate limit %v", l.Rate)
			}
		}
	}
	l.Burst = int(d.varint("burst"))
	l.MaxInFlight = int(d.varint("max in-flight"))
	l.QueueDepth = int(d.varint("queue depth"))
	if d.err == nil && (l.Burst < 0 || l.MaxInFlight < 0 || l.QueueDepth < 0) {
		d.failf("negative admission limit")
	}
	set := d.byte("limits set flags")
	if d.err == nil && set > 7 {
		// Reject unknown flag bits so the codec stays canonical on its
		// image (decode∘encode is the identity for accepted inputs).
		d.failf("invalid limits set flags %#x", set)
	}
	l.RateSet = set&1 != 0
	l.InFlightSet = set&2 != 0
	l.QueueSet = set&4 != 0
	return l
}

func (d *decoder) digraph() (int, []graph.Arc) {
	n := int(d.uvarintMax("vertex count", maxVertices))
	m := d.count("arc count")
	if d.err != nil {
		return 0, nil
	}
	arcs := make([]graph.Arc, m)
	for i := range arcs {
		arcs[i].From = int(d.uvarint("arc from"))
		arcs[i].To = int(d.uvarint("arc to"))
		arcs[i].Cap = d.varint("arc cap")
		arcs[i].Cost = d.varint("arc cost")
		if d.err != nil {
			return 0, nil
		}
		// Mirror Digraph.AddArc's invariants so a decoded record can never
		// fail to rebuild its digraph on replay.
		if arcs[i].From < 0 || arcs[i].From >= n || arcs[i].To < 0 || arcs[i].To >= n {
			d.failf("arc %d endpoints (%d,%d) out of range [0,%d)", i, arcs[i].From, arcs[i].To, n)
			return 0, nil
		}
		if arcs[i].From == arcs[i].To {
			d.failf("arc %d is a self-loop at %d", i, arcs[i].From)
			return 0, nil
		}
		if arcs[i].Cap <= 0 {
			d.failf("arc %d has non-positive capacity %d", i, arcs[i].Cap)
			return 0, nil
		}
	}
	return n, arcs
}

// frame prepends the [length][CRC32] header to a payload. The same framing
// guards WAL records and snapshot bodies.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// unframe validates one frame at the head of buf, returning its payload
// and the total frame size. ok is false when buf holds no complete, CRC-
// clean frame — the torn-tail condition recovery truncates at.
func unframe(buf []byte) (payload []byte, size int, ok bool) {
	if len(buf) < 8 {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if n == 0 || n > maxRecordLen || uint64(len(buf)) < 8+uint64(n) {
		return nil, 0, false
	}
	payload = buf[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, 8 + int(n), true
}

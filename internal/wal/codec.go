package wal

// The on-disk binary codec shared by every persistence artifact: WAL
// record payloads (row batches, refresh markers), table checkpoints and
// spilled sample entries. Everything is explicit little-endian with
// length-prefixed strings — no encoding/json (wire shapes belong to
// internal/api/v1; disk shapes belong here) and no reflection, so the
// format is exactly what this file says it is. Integrity is end-checked
// with CRC-32C everywhere a file can be half-written.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/table"
)

// ErrCorrupt reports a persistence artifact whose framing or checksum
// does not verify. Callers match it with errors.Is; the wrapped message
// names the file and offset.
var ErrCorrupt = errors.New("wal: corrupt data")

// castagnoli is the CRC-32C table used for every checksum in the
// package (hardware-accelerated on the platforms that matter).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// --- primitive little-endian writer/reader ---------------------------

// writer accumulates one encoded artifact in memory. Append-only; the
// caller frames and checksums the finished buffer.
type writer struct{ buf []byte }

func (w *writer) u8(v byte) { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *writer) u64(v uint64) {
	w.u32(uint32(v))
	w.u32(uint32(v >> 32))
}
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reader decodes one artifact, latching the first framing error so call
// sites stay linear and check err once at the end.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, r.off)
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *reader) u64() uint64 {
	lo := r.u32()
	hi := r.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// count reads a u32 element count and sanity-bounds it by the bytes
// remaining (each element costs at least min bytes), so a corrupt count
// cannot drive a giant allocation.
func (r *reader) count(min int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || (min > 0 && n > (len(r.buf)-r.off)/min+1) {
		r.fail()
		return 0
	}
	return n
}

// --- WAL record payloads ---------------------------------------------

// Cell tags for loosely-typed row values in a rows payload. Appends are
// logged after schema coercion, so only these three types ever occur.
const (
	cellString byte = 1
	cellFloat  byte = 2
	cellInt    byte = 3
)

// EncodeRows encodes one append batch of schema-coerced rows (string /
// float64 / int64 cells) as a TypeRows payload.
func EncodeRows(rows [][]any) ([]byte, error) {
	w := &writer{}
	w.u32(uint32(len(rows)))
	for _, row := range rows {
		w.u32(uint32(len(row)))
		for _, v := range row {
			switch x := v.(type) {
			case string:
				w.u8(cellString)
				w.str(x)
			case float64:
				w.u8(cellFloat)
				w.f64(x)
			case int64:
				w.u8(cellInt)
				w.i64(x)
			default:
				return nil, fmt.Errorf("wal: cannot encode cell of type %T (coerce rows first)", v)
			}
		}
	}
	return w.buf, nil
}

// DecodeRows decodes a TypeRows payload back into the loose rows the
// ingest Append path accepts.
func DecodeRows(p []byte) ([][]any, error) {
	r := &reader{buf: p}
	n := r.count(4)
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		cols := r.count(2)
		row := make([]any, 0, cols)
		for j := 0; j < cols; j++ {
			switch tag := r.u8(); tag {
			case cellString:
				row = append(row, r.str())
			case cellFloat:
				row = append(row, r.f64())
			case cellInt:
				row = append(row, r.i64())
			default:
				if r.err == nil {
					r.err = fmt.Errorf("%w: unknown cell tag %d", ErrCorrupt, tag)
				}
			}
			if r.err != nil {
				return nil, r.err
			}
		}
		rows = append(rows, row)
	}
	if r.err != nil {
		return nil, r.err
	}
	return rows, nil
}

// EncodeRefresh encodes a TypeRefresh payload: the generation number the
// publication carried, logged so replay re-finalizes at exactly the
// recorded points (the sampler's RNG consumption depends on the
// interleaving of appends and finalizes).
func EncodeRefresh(generation uint64) []byte {
	w := &writer{}
	w.u64(generation)
	return w.buf
}

// DecodeRefresh decodes a TypeRefresh payload.
func DecodeRefresh(p []byte) (uint64, error) {
	r := &reader{buf: p}
	gen := r.u64()
	if r.err != nil {
		return 0, r.err
	}
	return gen, nil
}

// --- workload / options encoding -------------------------------------

func encodeQueries(w *writer, queries []core.QuerySpec) {
	w.u32(uint32(len(queries)))
	for _, q := range queries {
		w.u32(uint32(len(q.GroupBy)))
		for _, a := range q.GroupBy {
			w.str(a)
		}
		w.u32(uint32(len(q.Aggs)))
		for _, a := range q.Aggs {
			w.str(a.Column)
			w.f64(a.Weight)
			w.u32(uint32(len(a.GroupWeights)))
			for k, v := range a.GroupWeights {
				w.str(k)
				w.f64(v)
			}
		}
	}
}

func decodeQueries(r *reader) []core.QuerySpec {
	n := r.count(8)
	queries := make([]core.QuerySpec, 0, n)
	for i := 0; i < n; i++ {
		var q core.QuerySpec
		ng := r.count(4)
		for j := 0; j < ng; j++ {
			q.GroupBy = append(q.GroupBy, r.str())
		}
		na := r.count(8)
		for j := 0; j < na; j++ {
			a := core.AggColumn{Column: r.str(), Weight: r.f64()}
			if gw := r.count(12); gw > 0 {
				a.GroupWeights = make(map[string]float64, gw)
				for k := 0; k < gw; k++ {
					key := r.str()
					a.GroupWeights[key] = r.f64()
				}
			}
			q.Aggs = append(q.Aggs, a)
		}
		queries = append(queries, q)
		if r.err != nil {
			return nil
		}
	}
	return queries
}

func encodeOptions(w *writer, o core.Options) {
	w.u8(byte(o.Norm))
	w.f64(o.P)
	w.i64(int64(o.MinPerStratum))
}

func decodeOptions(r *reader) core.Options {
	return core.Options{
		Norm:          core.Norm(r.u8()),
		P:             r.f64(),
		MinPerStratum: int(r.i64()),
	}
}

// --- table encoding ---------------------------------------------------

func encodeTable(w *writer, t *table.Table) error {
	sch := t.Schema()
	w.str(t.Name)
	w.u32(uint32(len(sch)))
	for _, c := range sch {
		w.str(c.Name)
		w.u8(byte(c.Kind))
	}
	rows := t.NumRows()
	w.u32(uint32(rows))
	for _, col := range t.Columns {
		switch col.Spec.Kind {
		case table.String:
			w.u32(uint32(col.Dict.Len()))
			for c := int32(0); c < int32(col.Dict.Len()); c++ {
				w.str(col.Dict.Value(c))
			}
			for _, code := range col.Str[:rows] {
				w.u32(uint32(code))
			}
		case table.Float:
			for _, v := range col.Float[:rows] {
				w.f64(v)
			}
		case table.Int:
			for _, v := range col.Int[:rows] {
				w.i64(v)
			}
		default:
			return fmt.Errorf("wal: cannot encode column kind %v", col.Spec.Kind)
		}
	}
	return nil
}

func decodeTable(r *reader) (*table.Table, error) {
	name := r.str()
	ncols := r.count(5)
	sch := make(table.Schema, 0, ncols)
	width := 0 // encoded bytes per row: 4 per string code, 8 per number
	for i := 0; i < ncols; i++ {
		c := table.ColumnSpec{Name: r.str(), Kind: table.Kind(r.u8())}
		switch c.Kind {
		case table.String:
			width += 4
		case table.Float, table.Int:
			width += 8
		default:
			return nil, fmt.Errorf("%w: unknown column kind %d", ErrCorrupt, c.Kind)
		}
		sch = append(sch, c)
	}
	// every row costs width bytes, so the count is bounded by the bytes
	// behind it; rows without columns have no bytes to bound them
	rows := r.count(width)
	if r.err != nil {
		return nil, r.err
	}
	if width == 0 && rows != 0 {
		return nil, fmt.Errorf("%w: %d rows without columns", ErrCorrupt, rows)
	}
	// decode column-major into dense slices, then materialize rows — the
	// same O(rows × cols) work a CSV load does
	strs := make([][]string, ncols)
	floats := make([][]float64, ncols)
	ints := make([][]int64, ncols)
	for i, c := range sch {
		switch c.Kind {
		case table.String:
			dictLen := r.count(4)
			dict := make([]string, dictLen)
			for j := 0; j < dictLen; j++ {
				dict[j] = r.str()
			}
			col := make([]string, rows)
			for j := 0; j < rows; j++ {
				code := int(r.u32())
				if r.err == nil && code >= dictLen {
					r.err = fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, code)
				}
				if r.err != nil {
					return nil, r.err
				}
				col[j] = dict[code]
			}
			strs[i] = col
		case table.Float:
			col := make([]float64, rows)
			for j := 0; j < rows; j++ {
				col[j] = r.f64()
			}
			floats[i] = col
		case table.Int:
			col := make([]int64, rows)
			for j := 0; j < rows; j++ {
				col[j] = r.i64()
			}
			ints[i] = col
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	t := table.New(name, sch)
	vals := make([]any, ncols)
	for j := 0; j < rows; j++ {
		for i, c := range sch {
			switch c.Kind {
			case table.String:
				vals[i] = strs[i][j]
			case table.Float:
				vals[i] = floats[i][j]
			case table.Int:
				vals[i] = ints[i][j]
			}
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, fmt.Errorf("wal: rebuilding table %q: %w", name, err)
		}
	}
	return t, nil
}

// SchemaSignature renders a schema as a stable string, stored with
// spilled samples so a changed source CSV invalidates them instead of
// silently serving row ids into the wrong table.
func SchemaSignature(sch table.Schema) string {
	w := &writer{}
	for _, c := range sch {
		w.str(c.Name)
		w.u8(byte(c.Kind))
	}
	return fmt.Sprintf("%08x-%d", crc32.Checksum(w.buf, castagnoli), len(sch))
}

// --- checkpoint files -------------------------------------------------

// StreamConfig is the persisted mirror of an ingest streaming
// configuration (the wal package cannot import ingest — ingest imports
// wal — so the serve layer converts). Policy fields are stored resolved:
// a restart must reproduce the policy the stream actually ran with, not
// re-apply whatever defaults the new process was started with.
type StreamConfig struct {
	Queries    []core.QuerySpec
	Budget     int
	Rate       float64
	TargetCV   float64
	MaxBudget  int
	Capacity   int
	Opts       core.Options
	Seed       int64
	MaxPending int
	Interval   time.Duration
}

// Checkpoint is one durable cut of a streaming table: the published
// snapshot at some generation, the configuration to rebuild the resident
// sampler, and the WAL sequence the snapshot covers. Records with seq <=
// Seq are redundant once a checkpoint lands and may be truncated.
type Checkpoint struct {
	Table      string
	Seq        uint64 // WAL records <= Seq are covered by Snapshot
	Generation uint64 // generation published for Snapshot
	Config     StreamConfig
	Snapshot   *table.Table
}

// The magic names the layout; cvckpt02 added the autoscale sizing
// (target CV + budget cap) to the stream configuration. Older files
// fail the magic check cleanly instead of misparsing.
const checkpointMagic = "cvckpt02"

// WriteCheckpoint atomically replaces the checkpoint file at path:
// the encoding goes to a temp file in the same directory, optionally
// fsynced, then renamed over the old checkpoint — a crash leaves either
// the previous complete checkpoint or the new one, never a torn mix.
func WriteCheckpoint(path string, cp *Checkpoint, sync bool) error {
	w := &writer{}
	w.str(cp.Table)
	w.u64(cp.Seq)
	w.u64(cp.Generation)
	encodeQueries(w, cp.Config.Queries)
	w.i64(int64(cp.Config.Budget))
	w.f64(cp.Config.Rate)
	w.f64(cp.Config.TargetCV)
	w.i64(int64(cp.Config.MaxBudget))
	w.i64(int64(cp.Config.Capacity))
	encodeOptions(w, cp.Config.Opts)
	w.i64(cp.Config.Seed)
	w.i64(int64(cp.Config.MaxPending))
	w.i64(int64(cp.Config.Interval))
	if err := encodeTable(w, cp.Snapshot); err != nil {
		return err
	}
	return writeFileAtomic(path, checkpointMagic, w.buf, sync)
}

// ReadCheckpoint reads and verifies a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	body, err := readFramedFile(path, checkpointMagic)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: body}
	cp := &Checkpoint{
		Table:      r.str(),
		Seq:        r.u64(),
		Generation: r.u64(),
	}
	cp.Config.Queries = decodeQueries(r)
	cp.Config.Budget = int(r.i64())
	cp.Config.Rate = r.f64()
	cp.Config.TargetCV = r.f64()
	cp.Config.MaxBudget = int(r.i64())
	cp.Config.Capacity = int(r.i64())
	cp.Config.Opts = decodeOptions(r)
	cp.Config.Seed = r.i64()
	cp.Config.MaxPending = int(r.i64())
	cp.Config.Interval = time.Duration(r.i64())
	if r.err != nil {
		return nil, fmt.Errorf("reading checkpoint %s: %w", path, r.err)
	}
	snap, err := decodeTable(r)
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint %s: %w", path, err)
	}
	cp.Snapshot = snap
	return cp, nil
}

// --- spilled sample entries ------------------------------------------

// SampleEntry is one built static sample persisted under the data dir:
// the canonical registry key and the build metadata (autoscale results
// included) plus the sampled row ids and weights. TableRows and
// SchemaSig guard validity: the row ids index the registered table, so
// they are only meaningful while that table is byte-identical to the
// one the sample was built against.
type SampleEntry struct {
	Key           string
	Table         string
	Budget        int
	TargetCV      float64
	AchievedCV    float64
	TargetMet     bool
	Queries       []core.QuerySpec
	Opts          core.Options
	BuiltAt       time.Time
	BuildDuration time.Duration
	TableRows     int
	SchemaSig     string
	Rows          []int32
	Weights       []float64
}

const sampleMagic = "cvspll01"

// WriteSample atomically writes a spilled sample entry to path. Layout:
// magic, u32 header length, header, u32 header CRC, row/weight data,
// u32 data CRC — so ReadSampleHeader can index a spill directory
// without reading sample payloads.
func WriteSample(path string, e *SampleEntry, sync bool) error {
	h := &writer{}
	h.str(e.Key)
	h.str(e.Table)
	h.i64(int64(e.Budget))
	h.f64(e.TargetCV)
	h.f64(e.AchievedCV)
	if e.TargetMet {
		h.u8(1)
	} else {
		h.u8(0)
	}
	encodeQueries(h, e.Queries)
	encodeOptions(h, e.Opts)
	h.i64(e.BuiltAt.UnixNano())
	h.i64(int64(e.BuildDuration))
	h.i64(int64(e.TableRows))
	h.str(e.SchemaSig)
	h.u32(uint32(len(e.Rows)))

	d := &writer{}
	for _, id := range e.Rows {
		d.u32(uint32(id))
	}
	for _, wt := range e.Weights {
		d.f64(wt)
	}

	w := &writer{}
	w.buf = append(w.buf, sampleMagic...)
	w.u32(uint32(len(h.buf)))
	w.buf = append(w.buf, h.buf...)
	w.u32(crc32.Checksum(h.buf, castagnoli))
	w.buf = append(w.buf, d.buf...)
	w.u32(crc32.Checksum(d.buf, castagnoli))
	return writeRawAtomic(path, w.buf, sync)
}

// readSampleHeader parses the framed header region, returning the
// header-populated entry, the row count and the offset where data
// begins.
func readSampleHeader(path string, data []byte) (*SampleEntry, int, int, error) {
	if len(data) < len(sampleMagic)+4 || string(data[:len(sampleMagic)]) != sampleMagic {
		return nil, 0, 0, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	r := &reader{buf: data, off: len(sampleMagic)}
	hlen := int(r.u32())
	if r.err != nil || hlen < 0 || r.off+hlen+4 > len(data) {
		return nil, 0, 0, fmt.Errorf("%w: %s: truncated header", ErrCorrupt, path)
	}
	header := data[r.off : r.off+hlen]
	r.off += hlen
	if crc := r.u32(); r.err != nil || crc != crc32.Checksum(header, castagnoli) {
		return nil, 0, 0, fmt.Errorf("%w: %s: header checksum mismatch", ErrCorrupt, path)
	}
	dataOff := r.off

	hr := &reader{buf: header}
	e := &SampleEntry{
		Key:        hr.str(),
		Table:      hr.str(),
		Budget:     int(hr.i64()),
		TargetCV:   hr.f64(),
		AchievedCV: hr.f64(),
		TargetMet:  hr.u8() == 1,
	}
	e.Queries = decodeQueries(hr)
	e.Opts = decodeOptions(hr)
	e.BuiltAt = time.Unix(0, hr.i64())
	e.BuildDuration = time.Duration(hr.i64())
	e.TableRows = int(hr.i64())
	e.SchemaSig = hr.str()
	n := int(hr.u32())
	if hr.err != nil || n < 0 {
		return nil, 0, 0, fmt.Errorf("%w: %s: bad sample header", ErrCorrupt, path)
	}
	return e, n, dataOff, nil
}

// ReadSampleHeader reads only the metadata of a spilled sample — enough
// to index it by key at boot without paying for the row payload.
func ReadSampleHeader(path string) (*SampleEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// headers are small; 64 KiB bounds pathological workloads without a
	// second read in practice
	buf := make([]byte, 64<<10)
	n, _ := f.Read(buf)
	e, _, _, err := readSampleHeader(path, buf[:n])
	if err != nil {
		// fall back to a full read for oversized headers
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, err
		}
		e, _, _, err = readSampleHeader(path, data)
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// ReadSample reads and fully verifies a spilled sample entry.
func ReadSample(path string) (*SampleEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e, n, off, err := readSampleHeader(path, data)
	if err != nil {
		return nil, err
	}
	want := n*4 + n*8 + 4
	if len(data)-off != want {
		return nil, fmt.Errorf("%w: %s: data length %d, want %d", ErrCorrupt, path, len(data)-off, want)
	}
	body := data[off : len(data)-4]
	r := &reader{buf: data, off: len(data) - 4}
	if crc := r.u32(); crc != crc32.Checksum(body, castagnoli) {
		return nil, fmt.Errorf("%w: %s: data checksum mismatch", ErrCorrupt, path)
	}
	dr := &reader{buf: body}
	e.Rows = make([]int32, n)
	for i := range e.Rows {
		e.Rows[i] = int32(dr.u32())
	}
	e.Weights = make([]float64, n)
	for i := range e.Weights {
		e.Weights[i] = dr.f64()
	}
	if dr.err != nil {
		return nil, fmt.Errorf("%w: %s: truncated sample data", ErrCorrupt, path)
	}
	return e, nil
}

// --- atomic file helpers ---------------------------------------------

// writeFileAtomic frames body as [magic][body][u32 crc] and writes it
// atomically (temp file + rename), optionally fsyncing before the
// rename so the rename never publishes unflushed bytes.
func writeFileAtomic(path, magic string, body []byte, sync bool) error {
	w := &writer{}
	w.buf = append(w.buf, magic...)
	w.buf = append(w.buf, body...)
	w.u32(crc32.Checksum(body, castagnoli))
	return writeRawAtomic(path, w.buf, sync)
}

// readFramedFile reads a [magic][body][u32 crc] file and verifies both.
func readFramedFile(path, magic string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	body := data[len(magic) : len(data)-4]
	r := &reader{buf: data, off: len(data) - 4}
	if crc := r.u32(); r.err != nil || crc != crc32.Checksum(body, castagnoli) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return body, nil
}

// writeRawAtomic writes data to path via a same-directory temp file and
// rename. With sync set, the temp file is fsynced before the rename and
// the directory after it, making the replacement durable.
func writeRawAtomic(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			cleanup()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync {
		if d, err := os.Open(dir); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}
	return nil
}

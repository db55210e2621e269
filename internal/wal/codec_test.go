package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/table"
)

func TestRowsRoundTrip(t *testing.T) {
	rows := [][]any{
		{"east", 12.5, int64(3)},
		{"west", math.Inf(1), int64(-9)},
		{"", 0.0, int64(0)},
	}
	p, err := EncodeRows(rows)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	got, err := DecodeRows(p)
	if err != nil {
		t.Fatalf("DecodeRows: %v", err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rows)
	}
}

func TestRowsEncodeRejectsUncoerced(t *testing.T) {
	if _, err := EncodeRows([][]any{{uint8(3)}}); err == nil {
		t.Fatal("expected error for uncoerced cell type")
	}
}

func TestRowsDecodeCorrupt(t *testing.T) {
	p, err := EncodeRows([][]any{{"a", 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(p); cut++ {
		if _, err := DecodeRows(p[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	bad := append([]byte(nil), p...)
	bad[8] = 99 // invalid cell tag
	if _, err := DecodeRows(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad tag: got %v, want ErrCorrupt", err)
	}
}

func TestRefreshRoundTrip(t *testing.T) {
	gen, err := DecodeRefresh(EncodeRefresh(42))
	if err != nil || gen != 42 {
		t.Fatalf("got (%d, %v), want (42, nil)", gen, err)
	}
	if _, err := DecodeRefresh([]byte{1, 2}); err == nil {
		t.Fatal("short refresh payload not detected")
	}
}

func testTable(t testing.TB, rows int) *table.Table {
	t.Helper()
	tbl := table.New("sales", table.Schema{
		{Name: "region", Kind: table.String},
		{Name: "amount", Kind: table.Float},
		{Name: "qty", Kind: table.Int},
	})
	regions := []string{"east", "west", "north"}
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow(regions[i%len(regions)], float64(i)*1.5, int64(i)); err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
	}
	return tbl
}

func tablesEqual(a, b *table.Table) bool {
	if a.Name != b.Name || a.NumRows() != b.NumRows() || len(a.Columns) != len(b.Columns) {
		return false
	}
	n := a.NumRows()
	for i := range a.Columns {
		ca, cb := a.Columns[i], b.Columns[i]
		if ca.Spec != cb.Spec {
			return false
		}
		for r := 0; r < n; r++ {
			switch ca.Spec.Kind {
			case table.String:
				if ca.Dict.Value(ca.Str[r]) != cb.Dict.Value(cb.Str[r]) {
					return false
				}
			case table.Float:
				if ca.Float[r] != cb.Float[r] {
					return false
				}
			case table.Int:
				if ca.Int[r] != cb.Int[r] {
					return false
				}
			}
		}
	}
	return true
}

func testConfig() StreamConfig {
	return StreamConfig{
		Queries: []core.QuerySpec{{
			GroupBy: []string{"region"},
			Aggs: []core.AggColumn{
				{Column: "amount", Weight: 2},
				{Column: "qty", Weight: 1, GroupWeights: map[string]float64{"east": 3}},
			},
		}},
		Budget:     128,
		Rate:       0.25,
		Capacity:   512,
		Opts:       core.Options{Norm: core.L2, P: 0.9, MinPerStratum: 2},
		Seed:       987654321,
		MaxPending: 64,
		Interval:   250 * time.Millisecond,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint")
	cp := &Checkpoint{
		Table:      "sales",
		Seq:        17,
		Generation: 4,
		Config:     testConfig(),
		Snapshot:   testTable(t, 37),
	}
	if err := WriteCheckpoint(path, cp, true); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got.Table != cp.Table || got.Seq != cp.Seq || got.Generation != cp.Generation {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Config, cp.Config) {
		t.Fatalf("config mismatch:\n got %+v\nwant %+v", got.Config, cp.Config)
	}
	if !tablesEqual(got.Snapshot, cp.Snapshot) {
		t.Fatal("snapshot tables differ after round trip")
	}

	// rewrite over the existing file (the steady-state checkpoint path)
	cp.Seq, cp.Generation = 42, 9
	if err := WriteCheckpoint(path, cp, false); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err = ReadCheckpoint(path)
	if err != nil || got.Seq != 42 || got.Generation != 9 {
		t.Fatalf("rewrite read: %+v, %v", got, err)
	}
}

func TestCheckpointCorruptDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint")
	cp := &Checkpoint{Table: "sales", Seq: 1, Generation: 1, Config: testConfig(), Snapshot: testTable(t, 5)}
	if err := WriteCheckpoint(path, cp, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped bit: got %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: got %v, want ErrCorrupt", err)
	}
}

// oversizedTablePayload is a 23-byte table encoding whose row count
// (2^25 rows of one float column) claims 256 MiB the payload does not
// hold.
var oversizedTablePayload = []byte{
	5, 0, 0, 0, 's', 'a', 'l', 'e', 's', // name
	1, 0, 0, 0, // one column
	1, 0, 0, 0, 'v', byte(table.Float), // "v" float
	0, 0, 0, 2, // 1<<25 rows
}

func TestDecodeTableBoundsRowCount(t *testing.T) {
	if len(oversizedTablePayload) != 23 {
		t.Fatalf("payload is %d bytes, want 23", len(oversizedTablePayload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeTable(&reader{buf: oversizedTablePayload})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized row count: got %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("decoding 23 bytes allocated %d bytes", n)
	}
	noCols := []byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0} // "", no columns, 3 rows
	if _, err := decodeTable(&reader{buf: noCols}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rows without columns: got %v, want ErrCorrupt", err)
	}
	empty := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0} // "", no columns, no rows
	if tbl, err := decodeTable(&reader{buf: empty}); err != nil || tbl.NumRows() != 0 {
		t.Fatalf("empty table: got %v, %v", tbl, err)
	}
}

// FuzzDecodeTable: on arbitrary bytes the table decoder never panics
// and never allocates beyond what the payload can back; whatever it
// accepts re-encodes to a table that decodes identically.
func FuzzDecodeTable(f *testing.F) {
	f.Add(oversizedTablePayload)
	w := &writer{}
	if err := encodeTable(w, testTable(f, 7)); err != nil {
		f.Fatal(err)
	}
	f.Add(w.buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := decodeTable(&reader{buf: data})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.HasPrefix(err.Error(), "wal: rebuilding table") {
				t.Fatalf("decode error %v is neither ErrCorrupt nor a rebuild error", err)
			}
			return
		}
		if tbl.NumRows() > len(data) {
			t.Fatalf("%d rows decoded from %d bytes", tbl.NumRows(), len(data))
		}
		w := &writer{}
		if err := encodeTable(w, tbl); err != nil {
			t.Fatal(err)
		}
		again, err := decodeTable(&reader{buf: w.buf})
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		w2 := &writer{}
		if err := encodeTable(w2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.buf, w2.buf) { // bytes, not values: NaN cells compare unequal
			t.Fatal("re-encoded table decodes differently")
		}
	})
}

func TestSampleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deadbeef.smp")
	e := &SampleEntry{
		Key:           "sales/b=128",
		Table:         "sales",
		Budget:        128,
		TargetCV:      0.05,
		AchievedCV:    math.Inf(1), // +Inf must survive: empty strata report it
		TargetMet:     false,
		Queries:       testConfig().Queries,
		Opts:          core.Options{Norm: core.L2, P: 0.9, MinPerStratum: 1},
		BuiltAt:       time.Unix(0, 1754550000000000000),
		BuildDuration: 42 * time.Millisecond,
		TableRows:     1000,
		SchemaSig:     SchemaSignature(testTable(t, 1).Schema()),
		Rows:          []int32{5, 9, 400, 999},
		Weights:       []float64{2.5, 1.0, 8.25, 250},
	}
	if err := WriteSample(path, e, true); err != nil {
		t.Fatalf("WriteSample: %v", err)
	}

	hdr, err := ReadSampleHeader(path)
	if err != nil {
		t.Fatalf("ReadSampleHeader: %v", err)
	}
	if hdr.Key != e.Key || hdr.Table != e.Table || hdr.TableRows != e.TableRows ||
		hdr.SchemaSig != e.SchemaSig || !math.IsInf(hdr.AchievedCV, 1) {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	if hdr.Rows != nil {
		t.Fatal("header read must not load row payload")
	}

	got, err := ReadSample(path)
	if err != nil {
		t.Fatalf("ReadSample: %v", err)
	}
	if !reflect.DeepEqual(got.Rows, e.Rows) || !reflect.DeepEqual(got.Weights, e.Weights) {
		t.Fatalf("payload mismatch: %+v", got)
	}
	if !got.BuiltAt.Equal(e.BuiltAt) || got.BuildDuration != e.BuildDuration || !reflect.DeepEqual(got.Queries, e.Queries) {
		t.Fatalf("metadata mismatch: %+v", got)
	}
}

func TestSampleCorruptDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.smp")
	e := &SampleEntry{Key: "k", Table: "t", TableRows: 10, SchemaSig: "sig",
		Rows: []int32{1, 2}, Weights: []float64{1, 2}}
	if err := WriteSample(path, e, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// flip a payload byte: full read fails, header read still succeeds
	bad := append([]byte(nil), data...)
	bad[len(bad)-6] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSample(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: got %v, want ErrCorrupt", err)
	}
	if _, err := ReadSampleHeader(path); err != nil {
		t.Fatalf("header should still verify: %v", err)
	}
	// flip a header byte: both fail
	bad = append([]byte(nil), data...)
	bad[len(sampleMagic)+6] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSampleHeader(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header flip: got %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSample(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("junk file: got %v, want ErrCorrupt", err)
	}
}

func TestSchemaSignature(t *testing.T) {
	a := testTable(t, 1).Schema()
	if SchemaSignature(a) != SchemaSignature(testTable(t, 5).Schema()) {
		t.Fatal("same schema must sign identically")
	}
	b := table.Schema{{Name: "region", Kind: table.String}, {Name: "amount", Kind: table.Int}}
	if SchemaSignature(a) == SchemaSignature(b) {
		t.Fatal("kind change must alter the signature")
	}
}

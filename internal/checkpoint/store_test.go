package checkpoint

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/federation"
)

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string]record{
		"gsd/0":    {seq: 3, data: []byte("partition state")},
		"es/part1": {seq: 1, data: []byte{0x00, 0xff, 0x7f}},
		"gone":     {seq: 9, deleted: true},
	}
	for owner, rec := range recs {
		if err := d.Put(owner, rec.seq, rec.data, rec.deleted); err != nil {
			t.Fatalf("put %q: %v", owner, err)
		}
	}
	got := d.Load()
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	for owner, want := range recs {
		g, ok := got[owner]
		if !ok {
			t.Fatalf("owner %q missing after reload", owner)
		}
		if g.seq != want.seq || g.deleted != want.deleted || string(g.data) != string(want.data) {
			t.Errorf("owner %q round-tripped to %+v, want %+v", owner, g, want)
		}
	}
}

func TestDiskStoreOverwriteKeepsLatest(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("o", 1, []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("o", 2, []byte("v2"), false); err != nil {
		t.Fatal(err)
	}
	got := d.Load()
	if len(got) != 1 || got["o"].seq != 2 || string(got["o"].data) != "v2" {
		t.Fatalf("after overwrite: %+v", got)
	}
}

// TestDiskStoreSkipsCorrupt proves a damaged directory never fails a load:
// bad magic, truncation mid-record, a flipped payload byte (checksum) and a
// leftover temp file are each skipped; intact records still load.
func TestDiskStoreSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("good", 5, []byte("survives"), false); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("truncated", 1, []byte("doomed"), false); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("bitflip", 1, []byte("doomed too"), false); err != nil {
		t.Fatal(err)
	}

	// Torn write: the file ends mid-stream.
	path := filepath.Join(dir, fileName("truncated"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	// Bit rot: same length, one payload byte flipped.
	path = filepath.Join(dir, fileName("bitflip"))
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Garbage that never was a checkpoint, and an abandoned temp file.
	if err := os.WriteFile(filepath.Join(dir, "junk.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName("tmp")+".tmp"), []byte("torn temp"), 0o644); err != nil {
		t.Fatal(err)
	}

	got := d.Load()
	if len(got) != 1 {
		t.Fatalf("loaded %d records, want only the intact one: %+v", len(got), got)
	}
	if g := got["good"]; g.seq != 5 || string(g.data) != "survives" {
		t.Fatalf("intact record damaged by load: %+v", g)
	}
}

// TestParentFormatFileSkipped boots a persistent service over a directory
// holding a version-1 (gob) checkpoint file next to a current one: the
// old file is skipped like any unreadable snapshot, and boot goes on.
func TestParentFormatFileSkipped(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("es/0", 4, []byte("current"), false); err != nil {
		t.Fatal(err)
	}
	old := diskRecord{Owner: "gsd/0", Seq: 7, Data: []byte("gob era")}
	old.Sum = old.checksum()
	buf := bytes.NewBufferString("PXCKPT1\n")
	if err := gob.NewEncoder(buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName(old.Owner)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewPersistentService(0, federation.NewView(nil), time.Second, dir)
	s.initDisk()
	if s.Len() != 1 {
		t.Fatalf("booted with %d records, want only the current-format one", s.Len())
	}
	if _, ok := s.store["gsd/0"]; ok {
		t.Fatal("version-1 record loaded")
	}
	if rec := s.store["es/0"]; rec.seq != 4 || string(rec.data) != "current" {
		t.Fatalf("current record = %+v", rec)
	}
}

// TestServicePersistsAndReloads drives the service-level path: records
// accepted by apply land on disk and a fresh instance over the same dir
// resumes with them, ignoring stale lower-sequence writes.
func TestServicePersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	view := federation.NewView(nil) // single partition: no replication peers
	s := NewPersistentService(0, view, time.Second, dir)
	s.initDisk()
	if seq := s.apply("gsd/0", 0, record{data: []byte("epoch-1")}); seq != 1 {
		t.Fatalf("first apply seq = %d", seq)
	}
	if seq := s.apply("gsd/0", 0, record{data: []byte("epoch-2")}); seq != 2 {
		t.Fatalf("second apply seq = %d", seq)
	}
	s.apply("es/0", 0, record{data: []byte("events")})

	// The restarted instance (same dir) resumes where the crash left it.
	s2 := NewPersistentService(0, view, time.Second, dir)
	s2.initDisk()
	if rec := s2.store["gsd/0"]; rec.seq != 2 || string(rec.data) != "epoch-2" {
		t.Fatalf("reloaded gsd/0 = %+v", rec)
	}
	if s2.Len() != 2 {
		t.Fatalf("reloaded %d live records, want 2", s2.Len())
	}
	// Stale version rejected post-reload: monotonicity survives restarts.
	if seq := s2.apply("gsd/0", 1, record{data: []byte("stale")}); seq != 2 {
		t.Fatalf("stale apply advanced seq to %d", seq)
	}
	if string(s2.store["gsd/0"].data) != "epoch-2" {
		t.Fatal("stale apply overwrote reloaded state")
	}
}

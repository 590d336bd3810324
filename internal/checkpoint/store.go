package checkpoint

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codec"
)

// DiskStore persists checkpoint records, one file per owner, so a node
// restarted after a crash resumes with its last acknowledged state (the
// paper's checkpoint service assumes saved state survives the saver; for
// real processes that means surviving SIGKILL).
//
// Durability discipline: a record is written to a temp file, fsynced,
// renamed over the owner's file, and the directory fsynced — a torn write
// can only leave a stale-but-complete previous record or an unparseable
// temp/target file, never a half-new one. Every file carries a magic
// prefix and a CRC over its logical content; anything that fails either
// check on load is skipped with a logged warning, not a failed boot.
type DiskStore struct {
	dir string
}

// storeMagic identifies (and versions) checkpoint files. Version 1 was
// gob; a version-1 file fails the magic check and is skipped like any
// other unreadable snapshot.
const storeMagic = "PXCKPT2\n"

// diskRecord is the on-disk form of one owner's record, encoded by its
// payload plan.
type diskRecord struct {
	Owner   string
	Seq     uint64
	Deleted bool
	Data    []byte
	Sum     uint32
}

func (r *diskRecord) checksum() uint32 {
	h := crc32.NewIEEE()
	fmt.Fprintf(h, "%s\x00%d\x00%t\x00", r.Owner, r.Seq, r.Deleted)
	h.Write(r.Data)
	return h.Sum32()
}

// NewDiskStore opens (creating if needed) a checkpoint directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir reports the store's directory.
func (d *DiskStore) Dir() string { return d.dir }

// fileName maps an owner key (which may contain separators, e.g. "gsd/1")
// to a flat file name.
func fileName(owner string) string {
	return hex.EncodeToString([]byte(owner)) + ".ckpt"
}

// Put durably writes one owner's record, replacing any previous one.
func (d *DiskStore) Put(owner string, seq uint64, data []byte, deleted bool) error {
	rec := diskRecord{Owner: owner, Seq: seq, Deleted: deleted, Data: data}
	rec.Sum = rec.checksum()
	buf, err := codec.AppendPayload([]byte(storeMagic), rec)
	if err != nil {
		return fmt.Errorf("checkpoint: encode %q: %w", owner, err)
	}

	target := filepath.Join(d.dir, fileName(owner))
	tmp := target + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: write %q: %w", owner, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write %q: %w", owner, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: fsync %q: %w", owner, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close %q: %w", owner, err)
	}
	if err := os.Rename(tmp, target); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename %q: %w", owner, err)
	}
	d.syncDir()
	return nil
}

// syncDir fsyncs the store directory so the rename itself is durable.
// Best effort: not every platform/filesystem supports it.
func (d *DiskStore) syncDir() {
	f, err := os.Open(d.dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	_ = f.Close()
}

// Load reads every record in the store. Corrupt or torn files — bad magic,
// truncated record, checksum mismatch — are skipped with a logged warning so
// one bad snapshot never fails a boot; leftover temp files are ignored.
func (d *DiskStore) Load() map[string]record {
	out := make(map[string]record)
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		log.Printf("checkpoint: read store dir %s: %v", d.dir, err)
		return out
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		path := filepath.Join(d.dir, name)
		rec, owner, err := readRecord(path)
		if err != nil {
			log.Printf("checkpoint: skipping corrupt snapshot %s: %v", path, err)
			continue
		}
		if cur, ok := out[owner]; !ok || rec.seq > cur.seq {
			out[owner] = rec
		}
	}
	return out
}

func readRecord(path string) (record, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return record{}, "", err
	}
	if !bytes.HasPrefix(raw, []byte(storeMagic)) {
		return record{}, "", fmt.Errorf("bad magic")
	}
	var rec diskRecord
	if err := codec.DecodePayload(raw[len(storeMagic):], &rec); err != nil {
		return record{}, "", fmt.Errorf("decode: %w", err)
	}
	if rec.Sum != rec.checksum() {
		return record{}, "", fmt.Errorf("checksum mismatch")
	}
	return record{seq: rec.Seq, data: rec.Data, deleted: rec.Deleted}, rec.Owner, nil
}

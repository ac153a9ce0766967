package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// populatedNMDB builds a small NMDB with registered clients and an active
// ledger, the fixture for snapshot and checkpoint tests.
func populatedNMDB(t *testing.T) *NMDB {
	t.Helper()
	db := NewNMDB(lineTopology(4))
	at := time.Unix(2000, 0)
	for n := 0; n < 4; n++ {
		if err := db.Register(n, true, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.RecordStat(n, 30+float64(n), 5, 4, at); err != nil {
			t.Fatal(err)
		}
	}
	db.RecordOffload([]core.Assignment{
		{Busy: 0, Candidate: 1, Amount: 6, ResponseTimeSec: 1.5},
		{Busy: 0, Candidate: 2, Amount: 4},
	})
	if err := db.RecordKeepalive(1, at); err != nil {
		t.Fatal(err)
	}
	return db
}

// envelope builds a raw v2 snapshot with an optional checksum override.
func envelope(t *testing.T, version int, body []byte, sum *uint32) []byte {
	t.Helper()
	cs := crc32.ChecksumIEEE(body)
	if sum != nil {
		cs = *sum
	}
	raw, err := json.Marshal(nmdbSnapshot{Version: version, Checksum: cs, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestLoadSnapshotErrors(t *testing.T) {
	validBody := []byte(`{"clients":[],"active":[]}`)
	badSum := crc32.ChecksumIEEE(validBody) + 1

	var truncated []byte
	{
		var buf bytes.Buffer
		if err := populatedNMDB(t).SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		truncated = buf.Bytes()[:buf.Len()/2]
	}

	cases := []struct {
		name    string
		input   []byte
		corrupt bool   // expect errors.Is(err, ErrSnapshotCorrupt)
		substr  string // expect the error to mention this
	}{
		{"empty input", nil, true, "decode snapshot"},
		{"garbage", []byte("not json at all"), true, "decode snapshot"},
		{"truncated mid-stream", truncated, true, "decode snapshot"},
		{"version skew", envelope(t, 1, validBody, nil), false, "snapshot version 1, want 2"},
		{"checksum mismatch", envelope(t, snapshotVersion, validBody, &badSum), true, "checksum"},
		{"valid checksum, wrong body shape", envelope(t, snapshotVersion, []byte(`[1,2]`), nil), true, "decode snapshot body"},
		{"client outside topology", envelope(t, snapshotVersion,
			[]byte(`{"clients":[{"node":99}],"active":[]}`), nil), false, "client 99 outside topology"},
		{"negative client", envelope(t, snapshotVersion,
			[]byte(`{"clients":[{"node":-1}],"active":[]}`), nil), false, "outside topology"},
		{"assignment outside topology", envelope(t, snapshotVersion,
			[]byte(`{"clients":[],"active":[{"busy":0,"candidate":42,"amount":5}]}`), nil), false, "0→42 outside topology"},
		{"negative amount", envelope(t, snapshotVersion,
			[]byte(`{"clients":[],"active":[{"busy":0,"candidate":1,"amount":-3}]}`), nil), false, "negative amount"},
		{"route edge outside topology", envelope(t, snapshotVersion,
			[]byte(`{"clients":[],"active":[{"busy":0,"candidate":1,"amount":5,"route_edges":[7]}]}`), nil), true, "route edge 7 outside topology"},
		{"route not a walk", envelope(t, snapshotVersion,
			[]byte(`{"clients":[],"active":[{"busy":0,"candidate":1,"amount":5,"route_edges":[2]}]}`), nil), true, "not a walk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := populatedNMDB(t)
			before := len(db.ActiveAssignments())
			err := db.LoadSnapshot(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatalf("LoadSnapshot(%q) succeeded, want error", tc.input)
			}
			if got := errors.Is(err, ErrSnapshotCorrupt); got != tc.corrupt {
				t.Errorf("errors.Is(err, ErrSnapshotCorrupt) = %v, want %v (err: %v)", got, tc.corrupt, err)
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("error %q does not mention %q", err, tc.substr)
			}
			// A rejected snapshot must leave the current state untouched.
			if after := len(db.ActiveAssignments()); after != before {
				t.Errorf("rejected snapshot changed ledger: %d assignments, had %d", after, before)
			}
		})
	}
}

// TestSnapshotChecksumDetectsBitFlip is the regression for the durability
// fix: a single corrupted byte inside the body region — which version-1
// snapshots silently restored — must now fail the load.
func TestSnapshotChecksumDetectsBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := populatedNMDB(t).SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Mutate a key inside the body while keeping the JSON well-formed, so
	// only the checksum can catch it.
	flipped := bytes.Replace(buf.Bytes(), []byte(`"node"`), []byte(`"nodf"`), 1)
	if bytes.Equal(flipped, buf.Bytes()) {
		t.Fatal("fixture did not contain the byte to flip")
	}
	db := NewNMDB(lineTopology(4))
	err := db.LoadSnapshot(bytes.NewReader(flipped))
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bit-flipped snapshot: err = %v, want ErrSnapshotCorrupt", err)
	}
	if n := len(db.ActiveAssignments()); n != 0 {
		t.Fatalf("bit-flipped snapshot restored %d assignments", n)
	}
}

func TestCheckpointStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nmdb.ckpt")
	store := NewCheckpointStore(path)
	src := populatedNMDB(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind after Save: %v", err)
	}

	dst := NewNMDB(lineTopology(4))
	if err := store.Load(dst); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		rec, ok := dst.Client(n)
		if !ok {
			t.Fatalf("client %d not restored", n)
		}
		if want := 30 + float64(n); rec.UtilPct != want {
			t.Errorf("client %d UtilPct = %g, want %g", n, rec.UtilPct, want)
		}
	}
	got := dst.ActiveAssignments()
	if len(got) != 2 {
		t.Fatalf("restored %d assignments, want 2", len(got))
	}
	sum := 0.0
	for _, a := range got {
		if a.Busy != 0 {
			t.Errorf("restored assignment busy = %d, want 0", a.Busy)
		}
		sum += a.Amount
	}
	if sum != 10 {
		t.Errorf("restored total amount = %g, want 10", sum)
	}

	// Save must be idempotent over an existing checkpoint (rename path).
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointStoreMissingFile(t *testing.T) {
	store := NewCheckpointStore(filepath.Join(t.TempDir(), "absent.ckpt"))
	err := store.Load(NewNMDB(lineTopology(4)))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint: err = %v, want fs.ErrNotExist", err)
	}
}

func TestCheckpointStoreCorruptMovedAside(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nmdb.ckpt")
	if err := os.WriteFile(path, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := NewCheckpointStore(path)
	err := store.Load(NewNMDB(lineTopology(4)))
	if err == nil {
		t.Fatal("corrupt checkpoint loaded without error")
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("corrupt checkpoint: err = %v, want ErrSnapshotCorrupt", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, fs.ErrNotExist) {
		t.Errorf("corrupt file still at %s: %v", path, serr)
	}
	if _, serr := os.Stat(path + ".corrupt"); serr != nil {
		t.Errorf("corrupt file not moved aside: %v", serr)
	}
	// The next load behaves like a fresh start.
	if lerr := store.Load(NewNMDB(lineTopology(4))); !errors.Is(lerr, fs.ErrNotExist) {
		t.Errorf("load after move-aside: err = %v, want fs.ErrNotExist", lerr)
	}
}

package streamstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pptd/internal/stream"
	"pptd/internal/streamstore/storefs"
)

// TestEncodeEnvelopeMatchesMarshal pins the one-pass envelope writer to
// the format it replaced: for json.Marshal-produced result, engine-state
// and cluster-close payloads, at envelope versions 1 (results) and 2
// (snapshots, with a covered position), encodeEnvelope's bytes equal
// json.Marshal(envelope{...}) over the marshaled payload. The payloads
// carry characters encoding/json escapes (<, >, &, U+2028) so the
// HTML-escaping of the wrapped payload is exercised too.
func TestEncodeEnvelopeMatchesMarshal(t *testing.T) {
	res := &stream.WindowResult{
		Window:      3,
		Estimator:   stream.EstimatorGTM,
		Truths:      []float64{1.5, 0, -2.25e-7},
		Covered:     []bool{true, false, true},
		Weights:     map[string]float64{"a<b>": 0.5, "c&d\u2028": 1.25},
		Iterations:  4,
		Converged:   true,
		ActiveUsers: 2,
	}
	st := &stream.EngineState{
		NumObjects:     3,
		Window:         2,
		WindowClaims:   5,
		TotalClaims:    17,
		Users:          []stream.UserSnapshot{{ID: "a<b>", Carry: 0.7, CumulativeEpsilon: 3, LastWindow: 1, Windows: 2}},
		Stats:          []stream.StatSnapshot{{Object: 2, User: "a<b>", Sum: 1.25, Mass: 0.5}},
		Estimator:      stream.EstimatorGTM,
		EstimatorState: json.RawMessage(`{"variances":{"a<b>":0.25}}`),
	}
	cs := &ClusterCloseState{Window: 4, State: st}
	batch, err := json.Marshal(map[string]any{"truths": []float64{1, 2}, "method": "a<b>"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		v       any
		covered *JournalPos
	}{
		{"result", res, nil},
		{"engine state v1", st, nil},
		{"engine state v2", st, &JournalPos{Seq: 7, Off: 12345}},
		{"engine state v2 widest position", st, &JournalPos{Seq: math.MinInt64, Off: math.MinInt64}},
		{"empty engine state v2", &stream.EngineState{}, &JournalPos{}},
		{"cluster close", cs, nil},
		{"batch result", json.RawMessage(batch), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			version := envelopeVersion
			if tc.covered != nil {
				version = segmentedSnapshotVersion
			}
			want, err := json.Marshal(envelope{
				Version: version,
				CRC32:   fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)),
				Covered: tc.covered,
				State:   body,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeEnvelope(tc.v, tc.covered)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("envelope bytes differ:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// blockingSyncFS is a storefs.FS whose Sync of the snapshot temp file
// blocks until released, holding a snapshot write mid-fsync.
type blockingSyncFS struct {
	storefs.FS
	entered chan struct{} // closed when the snapshot temp fsync begins
	release chan struct{} // closed to let it finish
	once    sync.Once
}

func (b *blockingSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (storefs.File, error) {
	f, err := b.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != snapshotTmpName {
		return f, err
	}
	return &blockingSyncFile{File: f, fs: b}, nil
}

type blockingSyncFile struct {
	storefs.File
	fs *blockingSyncFS
}

func (f *blockingSyncFile) Sync() error {
	f.fs.once.Do(func() { close(f.fs.entered) })
	<-f.fs.release
	return f.File.Sync()
}

// TestAppendChargeDuringSnapshotSync is the lock-scope regression: the
// snapshot's temp file is written and fsync'd outside Store.mu, so a
// durable append — which group commit flushes under Store.mu — completes
// while the snapshot fsync is still blocked. Close issued meanwhile waits
// for the in-flight snapshot instead of failing it.
func TestAppendChargeDuringSnapshotSync(t *testing.T) {
	fsys := &blockingSyncFS{FS: storefs.OS{}, entered: make(chan struct{}), release: make(chan struct{})}
	s, err := OpenWith(t.TempDir(), Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(fsys.release) }) }
	defer release()

	snapDone := make(chan error, 1)
	go func() {
		snapDone <- s.WriteSnapshot(&stream.EngineState{NumObjects: 1}, s.JournalPos())
	}()
	<-fsys.entered

	appendDone := make(chan error, 1)
	go func() {
		appendDone <- s.AppendCharge(stream.ChargeRecord{User: "alice", Window: 0, Epsilon: 1})
	}()
	select {
	case err := <-appendDone:
		if err != nil {
			t.Fatalf("append during snapshot fsync: %v", err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("AppendCharge stayed blocked while the snapshot temp file was being fsync'd")
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close() }()
	release()
	if err := <-snapDone; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("close: %v", err)
	}

	s, err = OpenWith(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	st, err := s.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || len(st.Users) != 1 || st.Users[0].ID != "alice" {
		t.Fatalf("recovered state = %+v, want the snapshot plus alice's charge", st)
	}
}

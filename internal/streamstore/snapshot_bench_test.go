package streamstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pptd/internal/randx"
	"pptd/internal/stream"
)

// maxWait calls probe in a loop, 100µs apart, until stop is closed, and
// returns the longest single call: the longest the probed lock was held
// against it.
func maxWait(stop <-chan struct{}, probe func()) time.Duration {
	var longest time.Duration
	for {
		select {
		case <-stop:
			return longest
		default:
		}
		start := time.Now()
		probe()
		if d := time.Since(start); d > longest {
			longest = d
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkSnapshotEngine times one SnapshotEngine (export plus durable
// envelope write and compaction) of an engine holding 20000 users × 10
// of 1000 objects — the population of the repository benchmark's close
// workload. Besides ns/op it reports pause-ms/op, the time ingestion is
// blocked per snapshot: the longest wait for the engine's window lock
// (which Ingest takes shared) plus the longest wait for the store lock
// (which every group-commit flush takes), each measured by a probe
// goroutine running alongside the snapshot.
func BenchmarkSnapshotEngine(b *testing.B) {
	const (
		users   = 20000
		objects = 1000
		perUser = 10
		shards  = 2
	)
	e, err := stream.New(stream.Config{NumObjects: objects, NumShards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	rng := randx.New(1)
	claims := make([]stream.Claim, perUser)
	for u := 0; u < users; u++ {
		for i, obj := range rng.Perm(objects)[:perUser] {
			claims[i] = stream.Claim{Object: obj, Value: rng.Norm()}
		}
		if _, _, err := e.Ingest(fmt.Sprintf("device-%05d", u), claims); err != nil {
			b.Fatal(err)
		}
	}
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	var pause time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop := make(chan struct{})
		var engineWait, storeWait time.Duration
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			engineWait = maxWait(stop, func() { _ = e.Window() })
		}()
		go func() {
			defer wg.Done()
			storeWait = maxWait(stop, func() { _ = s.JournalPos() })
		}()
		err := s.SnapshotEngine(e)
		close(stop)
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
		pause += engineWait + storeWait
	}
	b.ReportMetric(float64(pause)/float64(time.Millisecond)/float64(b.N), "pause-ms/op")
}

package experiments

import (
	"testing"
	"time"

	"repro/internal/snap"
)

// BenchmarkMetroCheckpointWrite is the steady-state cost of one barrier
// snapshot of a 256-flow trial: Reset, encode into the sweep's buffer, stream
// to the temp file, fsync, rename. The first write — the one that grows the
// buffer — happens before the timer starts, so B/op is what every later
// barrier of a sweep pays.
func BenchmarkMetroCheckpointWrite(b *testing.B) {
	opts, m := ckptTrial(b, 256, 123, time.Second)
	e := snap.NewEncoder()
	size, err := writeMetroCheckpoint(e, opts, nil, 0, time.Second, m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writeMetroCheckpoint(e, opts, nil, 0, time.Second, m); err != nil {
			b.Fatal(err)
		}
	}
}

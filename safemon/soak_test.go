package safemon

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// TestSoakSharedNetwork soaks concurrent sessions under -race: many
// sessions over one shared trained network, each pushed from its own
// goroutine, half of them abandoned mid-stream, and no goroutine may
// outlive its stream. Every verdict must equal Run's: inference on a
// shared network is race-free.
func TestSoakSharedNetwork(t *testing.T) {
	det := fittedDetector(t, "context-aware") // one shared trained network
	fold := testFold(t)
	refs := make([]*Trace, len(fold.Test))
	for i, traj := range fold.Test {
		var err error
		if refs[i], err = det.Run(context.Background(), traj); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()

	const streams = 16
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traj, ref := fold.Test[i%len(fold.Test)], refs[i%len(fold.Test)]
			sess, err := det.NewSession()
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			frames := traj.Len()
			if i%2 == 0 {
				frames /= 2 // abandon mid-stream
			}
			for j := 0; j < frames; j++ {
				v, err := sess.Push(&traj.Frames[j])
				if err != nil {
					errs <- fmt.Errorf("stream %d frame %d: %w", i, j, err)
					return
				}
				if v.FrameIndex != j {
					errs <- fmt.Errorf("stream %d: verdict %d out of order (frame %d)", i, v.FrameIndex, j)
					return
				}
				if v != ref.Verdicts[j] {
					errs <- fmt.Errorf("stream %d frame %d: %+v, Run gave %+v", i, j, v, ref.Verdicts[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	testutil.WaitGoroutines(t, baseline, 2)
}

package health

import (
	"sync"
	"testing"
	"time"

	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
)

// TestConcurrentSampling is the -race proof for the ops plane: a running
// sampler, hot metric writers, snapshot readers, and a flight-recorder
// drainer all share the registry and recorder concurrently — exactly the
// steady state of a health-enabled run under load.
func TestConcurrentSampling(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	rec := event.Enable(1 << 10)
	defer event.Disable()

	s := Start(Config{Interval: 100 * time.Microsecond})
	defer s.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	writer := func(f func(i int)) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				f(i)
			}
		}
	}
	wg.Add(4)
	go writer(func(i int) { // hot counter/gauge writes the sampler reads
		obs.C("manager_drain_total").Inc()
		obs.G("manager_shards_down").Set(float64(i % 3))
		obs.G(obs.Label("manager_mailbox_depth", "shard", "0")).Set(float64(i % 100))
	})
	go writer(func(i int) { // histogram writes
		obs.H("sim_cycle_seconds").Observe(float64(i%10) / 1000)
	})
	go writer(func(int) { // concurrent full snapshots (the /metrics path)
		_ = obs.ReadSnapshot()
	})
	go writer(func(int) { // recorder drain racing the sampler's RecordHealth
		_ = rec.Drain()
		_ = s.Payload()
	})

	// Drive ticks explicitly too: busy writers can starve a 100µs ticker
	// under the race detector, and the races we are hunting live in
	// SampleOnce regardless of what triggers it.
	for i := 0; i < 200; i++ {
		s.SampleOnce()
	}
	close(stop)
	wg.Wait()
	if s.Samples() < 200 {
		t.Fatalf("sampler took %d samples, want >= 200", s.Samples())
	}
}

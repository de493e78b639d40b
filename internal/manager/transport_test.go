package manager

import (
	"errors"
	"sync"
	"testing"
	"time"

	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
)

// fakeTransport hosts every shard on the real in-process host, journaling to
// a temporary state directory, behind a thin ShardConn wrapper that injects
// transport failures and logs the WAL operations the overlay issues.
type fakeTransport struct {
	*localTransport
	ports   []*fakePort
	started bool
}

func newFakeTransport(t *testing.T, numShards int) *fakeTransport {
	ft := &fakeTransport{localTransport: newLocalTransport(numShards, t.TempDir())}
	for i := 0; i < numShards; i++ {
		ft.ports = append(ft.ports, &fakePort{})
	}
	return ft
}

func (ft *fakeTransport) Start(numNodes int, replicated bool) error {
	ft.started = true
	if err := ft.localTransport.Start(numNodes, replicated); err != nil {
		return err
	}
	for i, p := range ft.ports {
		p.ShardConn = ft.localTransport.Shard(i)
	}
	return nil
}

func (ft *fakeTransport) Shard(i int) ShardConn { return ft.ports[i] }

type fakePort struct {
	ShardConn

	mu       sync.Mutex
	failWith error // when set, submits and drains fail with it
	marks    []uint64
	compacts []uint64
	resets   int
}

func (p *fakePort) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failWith
}

func (p *fakePort) Submit(tctx span.Context, primary, mirror []rating.Rating, timeout time.Duration) func() ([]error, error) {
	if err := p.failure(); err != nil {
		return func() ([]error, error) { return nil, err }
	}
	return p.ShardConn.Submit(tctx, primary, mirror, timeout)
}

func (p *fakePort) Drain(tctx span.Context, timeout time.Duration) (DrainSnapshots, error) {
	if err := p.failure(); err != nil {
		return DrainSnapshots{}, err
	}
	return p.ShardConn.Drain(tctx, timeout)
}

func (p *fakePort) Mark(interval uint64) error {
	p.mu.Lock()
	p.marks = append(p.marks, interval)
	p.mu.Unlock()
	return p.ShardConn.Mark(interval)
}

func (p *fakePort) CompactWAL(coveredSeq uint64) error {
	p.mu.Lock()
	p.compacts = append(p.compacts, coveredSeq)
	p.mu.Unlock()
	return p.ShardConn.CompactWAL(coveredSeq)
}

func (p *fakePort) ResetWAL() error {
	p.mu.Lock()
	p.resets++
	p.mu.Unlock()
	return p.ShardConn.ResetWAL()
}

func transportTrace(n int) []rating.Rating {
	var rs []rating.Rating
	seq := uint64(0)
	for i := 0; i < 3*n; i++ {
		v := 1.0
		if i%4 == 0 {
			v = -1
		}
		seq++
		rs = append(rs, rating.Rating{
			Rater: i % n, Ratee: (i*7 + 1) % n, Value: v,
			Cycle: i % 2, Category: i % 3, Seq: seq,
		})
	}
	return rs
}

// TestTransportMirrorsInProcess is the routing-correctness anchor: the same
// traffic through a transport-backed overlay and an in-process one must
// produce identical reputations, interval after interval.
func TestTransportMirrorsInProcess(t *testing.T) {
	const n, m = 12, 3
	ft := newFakeTransport(t, m)
	remote, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	local, err := New(n, m, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if !ft.started {
		t.Fatal("transport Start never called")
	}

	for interval := 0; interval < 3; interval++ {
		trace := transportTrace(n)
		if errs := remote.SubmitBatch(trace); errs != nil {
			t.Fatalf("interval %d: remote SubmitBatch: %v", interval, errs)
		}
		if errs := local.SubmitBatch(trace); errs != nil {
			t.Fatalf("interval %d: local SubmitBatch: %v", interval, errs)
		}
		// One single-rating submit rides the same batch path.
		r := rating.Rating{Rater: 1, Ratee: 2, Value: 1, Seq: 10_000 + uint64(interval)}
		if err := remote.Submit(r); err != nil {
			t.Fatal(err)
		}
		if err := local.Submit(r); err != nil {
			t.Fatal(err)
		}
		rr, lr := remote.EndInterval(), local.EndInterval()
		for i := range lr {
			if rr[i] != lr[i] {
				t.Fatalf("interval %d: reputation[%d] remote %v != local %v", interval, i, rr[i], lr[i])
			}
		}
		// Queries read the published vector and must agree across hosts.
		for node := 0; node < n; node++ {
			rq, err := remote.Query(node)
			if err != nil {
				t.Fatal(err)
			}
			lq, err := local.Query(node)
			if err != nil {
				t.Fatal(err)
			}
			if rq != lq {
				t.Fatalf("interval %d: query(%d) remote %v != local %v", interval, node, rq, lq)
			}
		}
	}
}

// TestTransportErrorMapping: transport-level failures must surface as the
// overlay's typed errors — ErrTimeout stays retryable, everything else reads
// as a dead shard.
func TestTransportErrorMapping(t *testing.T) {
	const n, m = 6, 2
	ft := newFakeTransport(t, m)
	o, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	ft.ports[1].failWith = ErrTimeout
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 1}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout submit error = %v, want ErrTimeout", err)
	}
	ft.ports[1].failWith = errors.New("connection reset")
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 2}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead-conn submit error = %v, want ErrShardDown", err)
	}
	errs := o.SubmitBatch([]rating.Rating{
		{Rater: 2, Ratee: 0, Value: 1, Seq: 3}, // shard 0: healthy
		{Rater: 0, Ratee: 1, Value: 1, Seq: 4}, // shard 1: failing
	})
	if errs == nil || errs[0] != nil || !errors.Is(errs[1], ErrShardDown) {
		t.Fatalf("batch errors = %v, want [nil, ErrShardDown]", errs)
	}
	ft.ports[1].failWith = nil
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 5}); err != nil {
		t.Fatalf("recovered shard still failing: %v", err)
	}
}

// TestTransportCrashRestartReplay: crashing a remote shard loses its
// incarnation but not its acknowledged (journaled) ratings — the restart
// replays them above the drained floor, so the interval drains complete.
func TestTransportCrashRestartReplay(t *testing.T) {
	const n, m = 6, 2
	ft := newFakeTransport(t, m)
	o, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	pre := []rating.Rating{
		{Rater: 0, Ratee: 1, Value: 1, Seq: 1},
		{Rater: 2, Ratee: 1, Value: 1, Seq: 2},
		{Rater: 4, Ratee: 3, Value: 1, Seq: 3},
	}
	for _, r := range pre {
		if err := o.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	o.crashShard(1)
	if _, err := o.Query(1); !errors.Is(err, ErrShardDown) {
		t.Fatalf("query on crashed remote shard = %v, want ErrShardDown", err)
	}
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 4}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("submit to crashed remote shard = %v, want ErrShardDown", err)
	}
	o.mu.Lock()
	o.restartShardLocked(1)
	o.mu.Unlock()

	reps := o.EndInterval()
	// All three pre-crash ratings survived: node 1 has two positives, node 3
	// one — the same answer a never-crashed overlay gives.
	ref, err := New(n, m, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, r := range pre {
		if err := ref.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.EndInterval()
	for i := range want {
		if reps[i] != want[i] {
			t.Fatalf("reputation[%d] after crash+restart = %v, want %v", i, reps[i], want[i])
		}
	}
}

// TestTransportWALOps: the overlay's durability surface reaches remote
// shards as wire operations, not file operations.
func TestTransportWALOps(t *testing.T) {
	const n, m = 6, 2
	ft := newFakeTransport(t, m)
	o, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	o.EndInterval() // drains: raises shard 1's drained floor to 7
	if err := o.CompactWALs(); err != nil {
		t.Fatal(err)
	}
	fs := ft.ports[1]
	fs.mu.Lock()
	compacts := append([]uint64(nil), fs.compacts...)
	fs.mu.Unlock()
	if len(compacts) != 1 || compacts[0] != 7 {
		t.Fatalf("shard 1 compact calls = %v, want [7]", compacts)
	}
	if seq := ft.localTransport.shards[1].sh.wal.MaxSeq(); seq != 0 {
		t.Fatalf("journal records up to seq %d survived a covering compaction", seq)
	}
	if err := o.ResetWALs(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	resets := fs.resets
	fs.mu.Unlock()
	if resets != 1 {
		t.Fatalf("shard 1 resets = %d, want 1", resets)
	}
}

// The in-process host: each Shard runs on its own mailbox goroutine, which
// applies the shard's operations serially in arrival order while distinct
// shards proceed in parallel. localTransport is the Transport an overlay
// uses when Options.Transport is nil.
package manager

import (
	"strconv"
	"sync"
	"time"

	"socialtrust/internal/obs"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
)

// localTransport hosts every shard in this process, journaling to
// <stateDir>/shard-<i>.wal when stateDir is set.
type localTransport struct {
	stateDir string
	shards   []*localShard
	closed   chan struct{}
	wg       sync.WaitGroup
}

func newLocalTransport(numShards int, stateDir string) *localTransport {
	return &localTransport{
		stateDir: stateDir,
		shards:   make([]*localShard, numShards),
		closed:   make(chan struct{}),
	}
}

// Start opens every shard (and its WAL) and starts its mailbox goroutine.
func (t *localTransport) Start(numNodes int, replicated bool) error {
	for i := range t.shards {
		sh, err := OpenShard(i, numNodes, replicated, t.stateDir, persist.Options{})
		if err != nil {
			_ = t.Close()
			return err
		}
		l := &localShard{
			sh: sh,
			// Buffered so callers posting to every shard in turn rarely
			// wait on an enqueue; 256 is the depth the mailbox always had.
			inbox:  make(chan mail, 256),
			closed: t.closed,
			depth:  obs.G(obs.Label("manager_mailbox_depth", "shard", strconv.Itoa(i))),
		}
		t.shards[i] = l
		t.wg.Add(1)
		go l.serve(&t.wg)
	}
	return nil
}

func (t *localTransport) Shard(i int) ShardConn { return t.shards[i] }

// Close stops the mailbox goroutines, dropping operations still queued, and
// then syncs and closes the WALs.
func (t *localTransport) Close() error {
	close(t.closed)
	t.wg.Wait()
	var first error
	for _, l := range t.shards {
		if l == nil {
			continue
		}
		if err := l.sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// localShard is one in-process shard endpoint: the ShardConn methods post
// closures to the mailbox goroutine that owns sh.
type localShard struct {
	sh     *Shard
	inbox  chan mail
	closed <-chan struct{}
	depth  *obs.Gauge // mailbox depth after the last handled operation
}

// mail is one posted operation and the channel that answers its caller.
type mail struct {
	run  func()
	done chan struct{}
}

func (l *localShard) serve(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-l.closed:
			return
		case m := <-l.inbox:
			m.run()
			// Set before the caller is answered, so an answered caller
			// reads the depth its own operation left, never an older one.
			l.depth.Set(float64(len(l.inbox)))
			close(m.done)
		}
	}
}

// post queues op on the mailbox and returns a wait for its result. timeout
// bounds the enqueue and the wait together; zero means no deadline.
func (l *localShard) post(timeout time.Duration, op func() error) func() error {
	var expired <-chan time.Time
	var timer *time.Timer
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		expired = timer.C
	}
	done := make(chan struct{})
	var err error
	select {
	case l.inbox <- mail{run: func() { err = op() }, done: done}:
	case <-l.closed:
		return func() error { return ErrClosed }
	case <-expired:
		return func() error { return ErrTimeout }
	}
	return func() error {
		if timer != nil {
			defer timer.Stop()
		}
		select {
		case <-done:
			return err
		case <-l.closed:
			return ErrClosed
		case <-expired:
			return ErrTimeout
		}
	}
}

// Submit posts one round of the shard's ratings, emitting its
// shard.deliver_batch span on the mailbox goroutine under the caller's trace
// context.
func (l *localShard) Submit(tctx span.Context, primary, mirror []rating.Rating, timeout time.Duration) func() ([]error, error) {
	var res []error
	wait := l.post(timeout, func() (err error) {
		tsp := span.From(tctx, "shard.deliver_batch", span.PhaseIngest).
			SetInt("shard", int64(l.sh.id)).SetInt("entries", int64(len(primary)+len(mirror)))
		if len(mirror) > 0 {
			tsp.SetInt("replica_entries", int64(len(mirror)))
		}
		res, err = l.sh.Add(primary, mirror)
		tsp.End()
		return err
	})
	return func() ([]error, error) {
		if err := wait(); err != nil {
			return nil, err
		}
		return res, nil
	}
}

func (l *localShard) Drain(tctx span.Context, timeout time.Duration) (DrainSnapshots, error) {
	var ds DrainSnapshots
	err := l.post(timeout, func() (err error) {
		tsp := span.From(tctx, "shard.drain", span.PhaseDrain).SetInt("shard", int64(l.sh.id))
		ds, err = l.sh.Drain()
		tsp.End()
		return err
	})()
	if err != nil {
		return DrainSnapshots{}, err
	}
	return ds, nil
}

func (l *localShard) Crash() error {
	return l.post(0, func() error { l.sh.Crash(); return nil })()
}

func (l *localShard) Restart(floor, replicaFloor uint64, markRecovered bool) error {
	return l.post(0, func() error { return l.sh.Restart(floor, replicaFloor, markRecovered) })()
}

func (l *localShard) Mark(interval uint64) error {
	return l.post(0, func() error { return l.sh.Mark(interval) })()
}

func (l *localShard) CompactWAL(coveredSeq uint64) error {
	return l.post(0, func() error { return l.sh.CompactWAL(coveredSeq) })()
}

func (l *localShard) ResetWAL() error {
	return l.post(0, l.sh.ResetWAL)()
}

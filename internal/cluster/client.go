// The cluster client: the coordinator's side of the wire. It implements
// manager.Transport over one connection per worker process, pipelining — many
// requests stay in flight per connection, matched to replies by request ID —
// so the overlay's send-all-then-collect submission overlap survives the move
// out of process.
//
// Connection failures trigger bounded-backoff reconnection with a full state
// resync: the client re-sends the Hello handshake, issues a Restart per
// hosted shard carrying the shard's drain floors (so a freshly respawned
// worker replays its own WAL tail, with replayed sequences marked recovered
// for duplicate-ack dedupe), and then replays every still-outstanding
// request in its original order. Requests issued while the connection is
// down queue and ride the resync. Only after the reconnect budget lapses do
// calls fail — surfacing to the overlay as ErrShardDown, exactly like a
// crashed in-process shard.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"socialtrust/internal/manager"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
)

const (
	// reconnectBase/Max bound the dial backoff; reconnectBudget is how long a
	// connection may stay down before its outstanding calls fail over to the
	// overlay's shard-down handling.
	reconnectBase   = 50 * time.Millisecond
	reconnectMax    = 2 * time.Second
	reconnectBudget = 30 * time.Second
	// dialRetryBudget bounds the initial Start dial — workers may still be
	// binding their sockets when the coordinator comes up.
	dialRetryBudget = 10 * time.Second
	// maxInflight caps pipelined requests per connection.
	maxInflight = 256
)

var errWorkerUnreachable = errors.New("cluster: worker unreachable after reconnect budget")

// call is one in-flight request: its encoded frame is kept until the reply
// lands so a reconnect can replay it.
type call struct {
	id      uint64
	c       *conn
	frame   []byte
	done    chan struct{}
	payload []byte // reply body (after the echoed header), set before done closes
	err     error
}

// cancel withdraws a timed-out call: the frame leaves the pending set so a
// later resync will not replay it. The fault model treats a submit timeout as
// "lost in transit" — the coordinator retries or accounts the loss — so
// redelivering the original frame after a reconnect would turn every
// timed-out-then-retried submission into a duplicate. A reply that races the
// cancellation completes the call quietly; one that arrives later finds no
// pending entry and is dropped.
func (ca *call) cancel() {
	c := ca.c
	c.mu.Lock()
	if _, ok := c.pending[ca.id]; ok {
		delete(c.pending, ca.id)
		mInflight.Add(-1)
	}
	c.mu.Unlock()
}

func (ca *call) complete(payload []byte, err error) {
	ca.payload = payload
	ca.err = err
	close(ca.done)
	mInflight.Add(-1)
}

// conn is one worker connection. mu guards the writer and all connection
// state; blocking resync handshakes run under it, so callers queue behind a
// reconnect instead of racing it.
type conn struct {
	cl     *Client
	addr   string
	shards []uint32 // shard indices hosted behind this connection

	mu      sync.Mutex
	nc      net.Conn // nil while reconnecting
	bw      *bufio.Writer
	gen     int // connection generation; stale reader/writer failures no-op
	nextID  uint64
	pending map[uint64]*call
	order   []uint64 // request IDs in send order, for reconnect replay
	down    error    // non-nil: permanently failed, calls fail immediately
}

// Client implements manager.Transport over a set of worker addresses. Shard i
// is hosted by worker i mod len(addrs).
type Client struct {
	addrs     []string
	numShards int
	conns     []*conn

	numNodes   int
	replicated bool
	closed     atomic.Bool

	mu            sync.Mutex
	floors        []uint64 // per-shard drained high-water marks (resync replay floors)
	replicaFloors []uint64 // per-shard replica-drain marks (fated-record replay floors)
}

// NewClient builds a transport routing numShards shards across the workers at
// addrs ("unix:/path" or "tcp:host:port"). Start dials.
func NewClient(addrs []string, numShards int) *Client {
	cl := &Client{addrs: addrs, numShards: numShards,
		floors: make([]uint64, numShards), replicaFloors: make([]uint64, numShards)}
	cl.conns = make([]*conn, len(addrs))
	for i := range addrs {
		cl.conns[i] = &conn{cl: cl, addr: addrs[i], pending: make(map[uint64]*call)}
	}
	for s := 0; s < numShards; s++ {
		c := cl.conns[s%len(addrs)]
		c.shards = append(c.shards, uint32(s))
	}
	return cl
}

// Start dials every worker and runs the Hello handshake. Part of
// manager.Transport; called once from NewWithOptions.
func (cl *Client) Start(numNodes int, replicated bool) error {
	cl.numNodes = numNodes
	cl.replicated = replicated
	for _, c := range cl.conns {
		nc, err := dialRetry(c.addr, dialRetryBudget)
		if err != nil {
			cl.Close()
			return err
		}
		c.mu.Lock()
		err = c.resyncLocked(nc, false)
		c.mu.Unlock()
		if err != nil {
			_ = nc.Close()
			cl.Close()
			return err
		}
	}
	return nil
}

// Shard returns shard i's endpoint. Part of manager.Transport.
func (cl *Client) Shard(i int) manager.ShardConn {
	return &shardPort{cl: cl, c: cl.conns[i%len(cl.conns)], shard: uint32(i)}
}

// Close fails all outstanding calls and closes every connection. Part of
// manager.Transport.
func (cl *Client) Close() error {
	cl.closed.Store(true)
	for _, c := range cl.conns {
		c.mu.Lock()
		c.failAllLocked(manager.ErrClosed)
		if c.nc != nil {
			_ = c.nc.Close()
			c.nc = nil
		}
		c.gen++
		c.mu.Unlock()
	}
	return nil
}

func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	network, address := splitListen(addr)
	deadline := time.Now().Add(budget)
	delay := reconnectBase
	for {
		nc, err := net.Dial(network, address)
		if err == nil {
			return nc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
		}
		time.Sleep(delay)
		if delay *= 2; delay > reconnectMax {
			delay = reconnectMax
		}
	}
}

// ---- connection lifecycle ----

// failAllLocked permanently fails the connection: every pending call
// completes with err and future calls fail immediately.
func (c *conn) failAllLocked(err error) {
	if c.down == nil {
		c.down = err
	}
	for id, ca := range c.pending {
		delete(c.pending, id)
		ca.complete(nil, c.down)
	}
	c.order = c.order[:0]
}

// connFailed reacts to a read or write error on generation gen: the socket
// closes, pending calls stay queued, and a reconnect loop takes over. Stale
// generations (a failure already handled) no-op.
func (c *conn) connFailed(gen int) {
	c.mu.Lock()
	if c.gen != gen || c.down != nil {
		c.mu.Unlock()
		return
	}
	c.gen++
	nc := c.nc
	c.nc = nil
	c.bw = nil
	c.mu.Unlock()
	if nc != nil {
		_ = nc.Close()
	}
	if c.cl.closed.Load() {
		c.mu.Lock()
		c.failAllLocked(manager.ErrClosed)
		c.mu.Unlock()
		return
	}
	go c.reconnect()
}

// reconnect redials with bounded backoff and resyncs. Gives up after
// reconnectBudget, failing all queued calls.
func (c *conn) reconnect() {
	deadline := time.Now().Add(reconnectBudget)
	delay := reconnectBase
	for {
		if c.cl.closed.Load() {
			c.mu.Lock()
			c.failAllLocked(manager.ErrClosed)
			c.mu.Unlock()
			return
		}
		mReconnects.Inc()
		network, address := splitListen(c.addr)
		nc, err := net.Dial(network, address)
		if err == nil {
			c.mu.Lock()
			err = c.resyncLocked(nc, true)
			c.mu.Unlock()
			if err == nil {
				return
			}
			_ = nc.Close()
		}
		if time.Now().After(deadline) {
			c.mu.Lock()
			c.failAllLocked(errWorkerUnreachable)
			c.mu.Unlock()
			return
		}
		time.Sleep(delay)
		if delay *= 2; delay > reconnectMax {
			delay = reconnectMax
		}
	}
}

// resyncLocked runs the connection handshake on a fresh socket and installs
// it. With restarts set (a reconnect, not the initial dial) it first issues a
// Restart per hosted shard — drain floors, replayed WAL sequences marked
// recovered — and then replays every outstanding call in its original send
// order; the worker's WAL-replay dedupe makes the redelivery exactly-once.
// Callers hold c.mu.
func (c *conn) resyncLocked(nc net.Conn, restarts bool) error {
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)

	// One synchronous round trip on the raw socket.
	rt := func(op byte, shard uint32, body func([]byte) []byte) error {
		id := c.nextID
		c.nextID++
		frame := finishFrame(body(appendHeader(beginFrame(nil), op, id, shard)))
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		mFramesSent.Inc()
		mBytesSent.Add(int64(len(frame)))
		payload, err := readFrame(br, nil)
		if err != nil {
			return err
		}
		h, rbody, err := parseHeader(payload)
		if err != nil {
			return err
		}
		if h.id != id || h.op != op|replyFlag {
			return fmt.Errorf("%w: handshake reply mismatch (op %d id %d)", ErrCorruptFrame, h.op, h.id)
		}
		w := &wire{b: rbody}
		if err := parseReplyStatus(w); err != nil {
			return err
		}
		return nil
	}

	c.cl.mu.Lock()
	floors := append([]uint64(nil), c.cl.floors...)
	replicaFloors := append([]uint64(nil), c.cl.replicaFloors...)
	c.cl.mu.Unlock()

	hello := helloInfo{
		version:    protoVersion,
		numNodes:   c.cl.numNodes,
		replicated: c.cl.replicated,
		shards:     c.shards,
	}
	if err := rt(opHello, 0, func(b []byte) []byte { return appendHello(b, hello) }); err != nil {
		return err
	}
	if restarts {
		for _, s := range c.shards {
			ri := restartInfo{floor: floors[s], replicaFloor: replicaFloors[s], markRecovered: true}
			if err := rt(opRestart, s, func(b []byte) []byte { return appendRestart(b, ri) }); err != nil {
				return err
			}
		}
		// Replay outstanding calls in their original order.
		for _, id := range c.order {
			ca := c.pending[id]
			if ca == nil {
				continue
			}
			if _, err := bw.Write(ca.frame); err != nil {
				return err
			}
			mFramesSent.Inc()
			mBytesSent.Add(int64(len(ca.frame)))
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}

	c.nc = nc
	c.bw = bw
	c.gen++
	go c.reader(c.gen, br)
	return nil
}

// reader matches reply frames to pending calls by request ID until the
// connection fails.
func (c *conn) reader(gen int, br *bufio.Reader) {
	for {
		payload, err := readFrame(br, nil)
		if err != nil {
			c.connFailed(gen)
			return
		}
		sp := mDecodeLat.Start()
		h, body, err := parseHeader(payload)
		sp.End()
		if err != nil || h.op&replyFlag == 0 {
			c.connFailed(gen)
			return
		}
		c.mu.Lock()
		if c.gen != gen {
			c.mu.Unlock()
			return
		}
		ca := c.pending[h.id]
		if ca != nil {
			delete(c.pending, h.id)
		}
		// Compact the send-order log once it is mostly tombstones.
		if len(c.order) > 2*len(c.pending)+64 {
			live := c.order[:0]
			for _, id := range c.order {
				if _, ok := c.pending[id]; ok {
					live = append(live, id)
				}
			}
			c.order = live
		}
		c.mu.Unlock()
		if ca != nil {
			ca.complete(body, nil)
		}
	}
}

// roundTrip registers and sends one request, returning the in-flight call.
// On a down-but-reconnecting connection the call queues (the resync replays
// it); only a permanently failed connection errors immediately.
func (c *conn) roundTrip(op byte, shard uint32, body func([]byte) []byte) (*call, error) {
	c.mu.Lock()
	if c.down != nil {
		err := c.down
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	sp := mEncodeLat.Start()
	frame := finishFrame(body(appendHeader(beginFrame(nil), op, id, shard)))
	sp.End()
	ca := &call{id: id, c: c, frame: frame, done: make(chan struct{})}
	c.pending[id] = ca
	c.order = append(c.order, id)
	mInflight.Add(1)
	gen := c.gen
	var werr error
	if c.bw != nil {
		if _, werr = c.bw.Write(frame); werr == nil {
			werr = c.bw.Flush()
		}
		if werr == nil {
			mFramesSent.Inc()
			mBytesSent.Add(int64(len(frame)))
		}
	}
	c.mu.Unlock()
	if werr != nil {
		c.connFailed(gen) // the call stays pending; the resync replays it
	}
	return ca, nil
}

// await blocks for the call's reply. timeout zero blocks indefinitely (the
// direct-path contract); a lapsed deadline returns manager.ErrTimeout and
// leaves the call pending — a late reply completes it quietly.
func await(ca *call, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		<-ca.done
		return ca.payload, ca.err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ca.done:
		return ca.payload, ca.err
	case <-t.C:
		return nil, manager.ErrTimeout
	}
}

// ---- the per-shard endpoint ----

// shardPort implements manager.ShardConn for one shard behind one connection.
// The trace context the overlay passes is not carried over the wire: worker
// processes emit no spans.
type shardPort struct {
	cl    *Client
	c     *conn
	shard uint32
}

func (p *shardPort) Submit(_ span.Context, primary, mirror []rating.Rating, timeout time.Duration) func() ([]error, error) {
	ca, err := p.c.roundTrip(opSubmit, p.shard, func(b []byte) []byte { return appendSubmit(b, primary, mirror) })
	if err != nil {
		return func() ([]error, error) { return nil, err }
	}
	return func() ([]error, error) { return submitWait(ca, len(primary)+len(mirror), timeout) }
}

// submitWait parses the acknowledgement of an n-rating submit into the
// index-aligned error slice the overlay expects. A reply that accounts for
// any other number of ratings is corrupt.
func submitWait(ca *call, n int, timeout time.Duration) ([]error, error) {
	payload, err := await(ca, timeout)
	if err != nil {
		if errors.Is(err, manager.ErrTimeout) {
			ca.cancel()
		}
		return nil, err
	}
	w := &wire{b: payload}
	if err := parseReplyStatus(w); err != nil {
		return nil, err
	}
	got, errs := parseSubmitReply(w)
	if err := w.done(); err != nil {
		return nil, err
	}
	if got != n {
		return nil, fmt.Errorf("%w: submit reply for %d ratings, sent %d", ErrCorruptFrame, got, n)
	}
	return errs, nil
}

func (p *shardPort) Drain(_ span.Context, timeout time.Duration) (manager.DrainSnapshots, error) {
	ca, err := p.c.roundTrip(opDrain, p.shard, func(b []byte) []byte { return b })
	if err != nil {
		return manager.DrainSnapshots{}, err
	}
	payload, err := await(ca, timeout)
	if err != nil {
		return manager.DrainSnapshots{}, err
	}
	w := &wire{b: payload}
	if err := parseReplyStatus(w); err != nil {
		return manager.DrainSnapshots{}, err
	}
	ds := w.drainReply(p.cl.numNodes)
	if err := w.done(); err != nil {
		return manager.DrainSnapshots{}, err
	}
	// Track the drain floors: on reconnect the worker replays only primary WAL
	// records above the primary floor and fated records above the replica
	// floor — the client-side twin of the overlay's noteDrained and
	// noteReplicaDrained.
	if ds.Primary.MaxSeq > 0 || ds.Replica.MaxSeq > 0 {
		p.cl.mu.Lock()
		if ds.Primary.MaxSeq > p.cl.floors[p.shard] {
			p.cl.floors[p.shard] = ds.Primary.MaxSeq
		}
		if ds.Replica.MaxSeq > p.cl.replicaFloors[p.shard] {
			p.cl.replicaFloors[p.shard] = ds.Replica.MaxSeq
		}
		p.cl.mu.Unlock()
	}
	return ds, nil
}

func (p *shardPort) Crash() error { return p.status(opCrash, nil) }

func (p *shardPort) Restart(floor, replicaFloor uint64, markRecovered bool) error {
	// The coordinator's floors can run ahead of the client's: a replica
	// substitution advances the substituted shard's drained mark without any
	// drain reply ever passing through this shard's port. Every explicit
	// Restart carries the coordinator's current floors, so raise the client's
	// replay floors to match — a later reconnect resync must not replay WAL
	// records the coordinator already recovered through the mirror.
	p.cl.mu.Lock()
	if floor > p.cl.floors[p.shard] {
		p.cl.floors[p.shard] = floor
	}
	if replicaFloor > p.cl.replicaFloors[p.shard] {
		p.cl.replicaFloors[p.shard] = replicaFloor
	}
	p.cl.mu.Unlock()
	ri := restartInfo{floor: floor, replicaFloor: replicaFloor, markRecovered: markRecovered}
	return p.status(opRestart, func(b []byte) []byte { return appendRestart(b, ri) })
}

func (p *shardPort) Mark(interval uint64) error {
	return p.status(opMark, func(b []byte) []byte { return appendU64(b, interval) })
}

func (p *shardPort) CompactWAL(coveredSeq uint64) error {
	return p.status(opCompactWAL, func(b []byte) []byte { return appendU64(b, coveredSeq) })
}

func (p *shardPort) ResetWAL() error { return p.status(opResetWAL, nil) }

// status runs one operation whose reply carries only a status, with no
// deadline. A nil body sends an empty one.
func (p *shardPort) status(op byte, body func([]byte) []byte) error {
	if body == nil {
		body = func(b []byte) []byte { return b }
	}
	ca, err := p.c.roundTrip(op, p.shard, body)
	if err != nil {
		return err
	}
	payload, err := await(ca, 0)
	if err != nil {
		return err
	}
	w := &wire{b: payload}
	if err := parseReplyStatus(w); err != nil {
		return err
	}
	return w.done()
}

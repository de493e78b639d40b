// The cluster worker: one process hosting one or more manager shards behind
// a socket. Each hosted shard is a manager.Shard — the same state machine the
// in-process overlay runs — behind a per-shard serial dispatch loop standing
// in for the mailbox goroutine, so operations on one shard apply in arrival
// order while distinct shards proceed in parallel.
//
// The worker owns its shards' WALs (Config.StateDir): submissions are
// journaled before they are acknowledged, so a SIGKILLed worker recovers its
// acknowledged tail from its own files when the coordinator's client
// reconnects and replays the restart handshake.
//
// SIGTERM drains cleanly: the listener closes, readers stop at the current
// frame boundary, every request already received is executed and answered,
// WALs are synced, /readyz flips to 503, and the process exits 0.
package cluster

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"socialtrust/internal/manager"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/health"
	"socialtrust/internal/persist"
)

// Config configures one worker daemon.
type Config struct {
	// Listen is the serving address: "unix:/path/to.sock", "tcp:host:port",
	// or a bare host:port (TCP).
	Listen string
	// StateDir, when set, holds one WAL per hosted shard
	// (<StateDir>/shard-<i>.wal); submissions are journaled before they are
	// acknowledged. Empty disables worker-side durability.
	StateDir string
	// Persist tunes the shard WALs (fsync policy).
	Persist persist.Options
	// HealthAddr, when set, serves /healthz /readyz /statusz /metrics (and
	// optionally pprof) on the given TCP address.
	HealthAddr string
	Pprof      bool
	// Linger keeps the process alive (readiness down) for the given duration
	// after a drain completes, so orchestrators observe the not-ready window
	// before the exit. Zero exits immediately.
	Linger time.Duration
}

// hostedShard is one shard this worker hosts, with its dispatch queue.
type hostedShard struct {
	sh    *manager.Shard
	queue chan *wreq
}

// wreq is one queued shard operation.
type wreq struct {
	h    msgHeader
	body []byte
	wc   *wconn
}

// wconn serializes reply writes to one coordinator connection.
type wconn struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	buf  []byte
	dead bool
}

// reply encodes one reply frame into the connection's reusable buffer and
// writes it. Write failures latch the connection dead; the queued operations
// already applied stay applied (the coordinator's reconnect handshake
// re-establishes what was acknowledged).
func (c *wconn) reply(build func(b []byte) []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return
	}
	sp := mEncodeLat.Start()
	c.buf = finishFrame(build(beginFrame(c.buf)))
	sp.End()
	if _, err := c.bw.Write(c.buf); err != nil {
		c.dead = true
		return
	}
	if err := c.bw.Flush(); err != nil {
		c.dead = true
		return
	}
	mFramesSent.Inc()
	mBytesSent.Add(int64(len(c.buf)))
}

// Worker is a running shard-hosting daemon.
type Worker struct {
	cfg Config

	mu         sync.Mutex
	shards     map[uint32]*hostedShard
	numNodes   int
	replicated bool

	ln        net.Listener
	closed    chan struct{} // set on shutdown: stop accepting and reading
	drained   chan struct{} // set once readers exited: shard loops finish and exit
	closeOnce sync.Once
	draining  atomic.Bool
	conns     sync.WaitGroup
	shardWG   sync.WaitGroup
}

// NewWorker builds a worker; Run starts serving.
func NewWorker(cfg Config) *Worker {
	return &Worker{
		cfg:     cfg,
		shards:  make(map[uint32]*hostedShard),
		closed:  make(chan struct{}),
		drained: make(chan struct{}),
	}
}

// splitListen parses a listen/dial spec into (network, address).
func splitListen(s string) (string, string) {
	if rest, ok := strings.CutPrefix(s, "unix:"); ok {
		return "unix", rest
	}
	if rest, ok := strings.CutPrefix(s, "tcp:"); ok {
		return "tcp", rest
	}
	return "tcp", s
}

// Shutdown initiates a graceful drain: readiness flips to not-ready, the
// listener closes, and Run returns once every received request is executed,
// answered, and the WAL tail synced. Safe to call more than once.
func (w *Worker) Shutdown() {
	w.closeOnce.Do(func() {
		w.draining.Store(true)
		close(w.closed)
		w.mu.Lock()
		ln := w.ln
		w.mu.Unlock()
		if ln != nil {
			_ = ln.Close()
		}
	})
}

// Run listens, serves coordinator connections until Shutdown (or SIGTERM/
// SIGINT when wired by RunSignals), then drains and returns.
func (w *Worker) Run() error {
	network, addr := splitListen(w.cfg.Listen)
	if network == "unix" {
		_ = os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", w.cfg.Listen, err)
	}
	w.mu.Lock()
	w.ln = ln
	w.mu.Unlock()
	// A Shutdown that raced the listener install closes it here instead.
	select {
	case <-w.closed:
		_ = ln.Close()
	default:
	}
	var healthSrv *http.Server
	if w.cfg.HealthAddr != "" {
		healthSrv, err = w.serveHealth()
		if err != nil {
			_ = ln.Close()
			return err
		}
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-w.closed:
			default:
				w.Shutdown()
			}
			break
		}
		w.conns.Add(1)
		go func() {
			defer w.conns.Done()
			w.serveConn(nc)
		}()
	}
	// Drain: wait for readers (every request received is now queued), then
	// let the shard loops finish their queues, then make the WAL tails
	// durable. Only after all of that may the process exit.
	w.conns.Wait()
	close(w.drained)
	w.shardWG.Wait()
	w.mu.Lock()
	for _, st := range w.shards {
		_ = st.sh.Close()
	}
	w.mu.Unlock()
	if w.cfg.Linger > 0 {
		time.Sleep(w.cfg.Linger)
	}
	if healthSrv != nil {
		_ = healthSrv.Close()
	}
	return nil
}

// RunSignals is Run with SIGTERM/SIGINT wired to the graceful drain — the
// daemon entry point.
func (w *Worker) RunSignals() error {
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigC
		w.Shutdown()
	}()
	defer signal.Stop(sigC)
	return w.Run()
}

// serveHealth starts the worker's ops endpoint: metrics (+pprof), health
// probes, with /readyz forced to 503 once a drain begins.
func (w *Worker) serveHealth() (*http.Server, error) {
	ln, err := net.Listen("tcp", w.cfg.HealthAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: health listen %s: %w", w.cfg.HealthAddr, err)
	}
	obs.Enable()
	s := health.Start(health.Config{})
	base := health.Handler(s, obs.Handler(w.cfg.Pprof))
	h := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && w.draining.Load() {
			http.Error(rw, "draining", http.StatusServiceUnavailable)
			return
		}
		base.ServeHTTP(rw, r)
	})
	srv := &http.Server{Addr: ln.Addr().String(), Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}

// closeRead half-closes a connection so the blocked reader unblocks while
// queued replies still go out — the graceful-drain read cutoff.
func closeRead(nc net.Conn) {
	type readCloser interface{ CloseRead() error }
	if rc, ok := nc.(readCloser); ok {
		_ = rc.CloseRead()
		return
	}
	_ = nc.Close()
}

// serveConn reads frames from one coordinator connection and dispatches
// them. A malformed frame closes the connection (never the process — the
// fuzz contract); the coordinator's client treats that as a connection
// failure and reconnects.
func (w *Worker) serveConn(nc net.Conn) {
	defer nc.Close()
	wc := &wconn{bw: bufio.NewWriterSize(nc, 64<<10)}
	br := bufio.NewReaderSize(nc, 64<<10)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-w.closed:
			closeRead(nc)
		case <-stop:
		}
	}()
	for {
		payload, err := readFrame(br, nil)
		if err != nil {
			return
		}
		h, body, err := parseHeader(payload)
		if err != nil {
			return
		}
		if h.op == opHello {
			w.handleHello(wc, h, body)
			continue
		}
		w.mu.Lock()
		st := w.shards[h.shard]
		w.mu.Unlock()
		if st == nil {
			replyError(wc, h, fmt.Sprintf("unknown shard %d", h.shard))
			continue
		}
		select {
		case st.queue <- &wreq{h: h, body: body, wc: wc}:
		case <-w.drained:
			return
		}
	}
}

func replyError(wc *wconn, h msgHeader, msg string) {
	wc.reply(func(b []byte) []byte {
		b = appendReplyHeader(b, h.op, h.id, h.shard, statusError)
		return appendString(b, msg)
	})
}

func replyOK(wc *wconn, h msgHeader) {
	wc.reply(func(b []byte) []byte {
		return appendReplyHeader(b, h.op, h.id, h.shard, statusOK)
	})
}

// handleHello installs the overlay geometry and creates (or revisits, on a
// reconnect handshake) the hosted shards. Each new shard opens its WAL —
// torn tails are truncated on open — and starts its serial dispatch loop.
func (w *Worker) handleHello(wc *wconn, h msgHeader, body []byte) {
	info, err := parseHello(body)
	if err != nil {
		replyError(wc, h, err.Error())
		return
	}
	if info.version != protoVersion {
		replyError(wc, h, fmt.Sprintf("protocol version %d, worker speaks %d", info.version, protoVersion))
		return
	}
	if info.numNodes <= 0 {
		replyError(wc, h, fmt.Sprintf("invalid node count %d", info.numNodes))
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.shards) == 0 {
		w.numNodes = info.numNodes
		w.replicated = info.replicated
	} else if w.numNodes != info.numNodes || w.replicated != info.replicated {
		replyError(wc, h, "hello geometry mismatch with hosted shards")
		return
	}
	for _, id := range info.shards {
		if _, ok := w.shards[id]; ok {
			continue // reconnect: the shard and its state survive
		}
		sh, err := manager.OpenShard(int(id), w.numNodes, w.replicated, w.cfg.StateDir, w.cfg.Persist)
		if err != nil {
			replyError(wc, h, err.Error())
			return
		}
		st := &hostedShard{sh: sh, queue: make(chan *wreq, 1024)}
		w.shards[id] = st
		w.shardWG.Add(1)
		go w.shardLoop(st)
	}
	replyOK(wc, h)
}

// shardLoop applies one shard's operations serially in arrival order — the
// worker-side mailbox. It exits once the drain gate opens and the queue is
// empty.
func (w *Worker) shardLoop(st *hostedShard) {
	defer w.shardWG.Done()
	for {
		select {
		case rq := <-st.queue:
			w.handleShardOp(st, rq)
		case <-w.drained:
			for {
				select {
				case rq := <-st.queue:
					w.handleShardOp(st, rq)
				default:
					return
				}
			}
		}
	}
}

// handleShardOp decodes one request, applies it to the shard, and answers.
// A decode failure or a shard error (a crashed shard refusing work) goes back
// as an error reply.
func (w *Worker) handleShardOp(st *hostedShard, rq *wreq) {
	h := rq.h
	sp := mDecodeLat.Start()
	wr := &wire{b: rq.body}
	// decoded ends the decode span and reports whether the body parsed
	// cleanly, answering with the decode error when it did not.
	decoded := func() bool {
		err := wr.done()
		sp.End()
		if err != nil {
			replyError(rq.wc, h, err.Error())
		}
		return err == nil
	}
	var result func(b []byte) []byte // op-specific reply body after the status
	var err error
	switch h.op {
	case opSubmit:
		primary, mirror := wr.ratings(), wr.ratings()
		if !decoded() {
			return
		}
		var errs []error
		errs, err = st.sh.Add(primary, mirror)
		result = func(b []byte) []byte { return appendSubmitReply(b, len(primary)+len(mirror), errs) }
	case opDrain:
		if !decoded() {
			return
		}
		var ds manager.DrainSnapshots
		ds, err = st.sh.Drain()
		result = func(b []byte) []byte { return appendDrainReply(b, ds) }
	case opCrash:
		if !decoded() {
			return
		}
		st.sh.Crash()
	case opRestart:
		ri := parseRestart(wr)
		if !decoded() {
			return
		}
		err = st.sh.Restart(ri.floor, ri.replicaFloor, ri.markRecovered)
	case opMark:
		interval := wr.u64()
		if !decoded() {
			return
		}
		err = st.sh.Mark(interval)
	case opCompactWAL:
		floor := wr.u64()
		if !decoded() {
			return
		}
		err = st.sh.CompactWAL(floor)
	case opResetWAL:
		if !decoded() {
			return
		}
		err = st.sh.ResetWAL()
	default:
		sp.End()
		replyError(rq.wc, h, fmt.Sprintf("unknown op %d", h.op))
		return
	}
	if err != nil {
		replyError(rq.wc, h, err.Error())
		return
	}
	rq.wc.reply(func(b []byte) []byte {
		b = appendReplyHeader(b, h.op, h.id, h.shard, statusOK)
		if result != nil {
			b = result(b)
		}
		return b
	})
}

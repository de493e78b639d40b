// Spawning and supervising a local worker fleet: Spawn launches N shard
// worker processes by re-executing the current binary (which calls
// WorkerMainIfChild before flag parsing), wires a pipelined Client across
// them, respawns workers that die unexpectedly, and tears the fleet down with
// a graceful SIGTERM escalating to SIGKILL.
package cluster

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"socialtrust/internal/obs"
)

// SpawnOptions configures a worker fleet.
type SpawnOptions struct {
	// Workers is the process count; Shards the total shard count routed
	// across them (shard i lives on worker i mod Workers).
	Workers int
	Shards  int
	// StateDir, when set, gives each worker its own WAL directory
	// (<StateDir>/worker-<i>). Empty disables worker-side durability.
	StateDir string
	// HealthBase, when non-zero, serves each worker's ops endpoint on
	// 127.0.0.1:(HealthBase+i).
	HealthBase int
	// NoRespawn disables the supervisor: a worker that dies stays dead.
	NoRespawn bool
	// Linger is passed through to the workers' drain linger window.
	Linger time.Duration
}

// workerProc is one supervised worker process.
type workerProc struct {
	idx  int
	addr string
	env  []string

	mu      sync.Mutex
	cmd     *exec.Cmd
	exited  chan struct{} // closed when the current incarnation exits
	peakRSS atomic.Uint64 // max VmHWM observed across incarnations, in bytes
}

// ProcCluster is a running worker fleet plus the Transport that drives it.
// Pass Client() as manager.Options.Transport; Close tears down both.
type ProcCluster struct {
	opts    SpawnOptions
	sockDir string
	client  *Client
	procs   []*workerProc
	closing atomic.Bool
	mon     sync.WaitGroup
}

// Spawn launches the fleet and waits for every worker socket to accept.
func Spawn(opts SpawnOptions) (*ProcCluster, error) {
	if opts.Workers <= 0 || opts.Shards <= 0 {
		return nil, fmt.Errorf("cluster: need positive worker and shard counts (got %d, %d)", opts.Workers, opts.Shards)
	}
	if opts.Workers > opts.Shards {
		opts.Workers = opts.Shards
	}
	// Workers re-exec this binary, which must call WorkerMainIfChild early
	// in main.
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cluster: resolve self for worker exec: %w", err)
	}
	// Unix socket paths are length-limited (~104 bytes), so the socket
	// directory is a fresh short-named temp dir, not the state dir.
	sockDir, err := os.MkdirTemp("", "stc")
	if err != nil {
		return nil, err
	}
	pc := &ProcCluster{opts: opts, sockDir: sockDir}
	addrs := make([]string, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		addrs[i] = "unix:" + filepath.Join(sockDir, fmt.Sprintf("w%d.sock", i))
		env := append(os.Environ(), envListen+"="+addrs[i])
		if opts.StateDir != "" {
			env = append(env, envStateDir+"="+filepath.Join(opts.StateDir, fmt.Sprintf("worker-%d", i)))
		}
		if opts.HealthBase != 0 {
			env = append(env, envHealth+"="+fmt.Sprintf("127.0.0.1:%d", opts.HealthBase+i))
		}
		if opts.Linger > 0 {
			env = append(env, envLinger+"="+opts.Linger.String())
		}
		wp := &workerProc{idx: i, addr: addrs[i], env: env}
		if err := pc.launch(wp, self); err != nil {
			_ = pc.Close()
			return nil, err
		}
		pc.procs = append(pc.procs, wp)
	}
	pc.client = NewClient(addrs, opts.Shards)
	return pc, nil
}

// launch starts one worker incarnation and its supervisor goroutine.
func (pc *ProcCluster) launch(wp *workerProc, exe string) error {
	cmd := exec.Command(exe)
	cmd.Env = wp.env
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: start worker %d: %w", wp.idx, err)
	}
	exited := make(chan struct{})
	wp.mu.Lock()
	wp.cmd = cmd
	wp.exited = exited
	wp.mu.Unlock()
	pc.mon.Add(1)
	go func() {
		defer pc.mon.Done()
		pid := cmd.Process.Pid
		done := make(chan struct{})
		go func() {
			_ = cmd.Wait()
			close(done)
		}()
		// Poll the kernel's peak-RSS high-water mark while the process lives;
		// the final read races its death, so the last good sample stands.
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				close(exited)
				if !pc.closing.Load() && !pc.opts.NoRespawn {
					mRespawns.Inc()
					_ = pc.launch(wp, exe)
				}
				return
			case <-tick.C:
				wp.samplePeak(pid)
			}
		}
	}()
	return nil
}

// SelfPeakRSSMB returns this process's peak resident set size in MiB
// (kernel VmHWM), or 0 where /proc is unavailable.
func SelfPeakRSSMB() float64 {
	_, peak := obs.ProcRSS(os.Getpid())
	return float64(peak) / (1 << 20)
}

// samplePeak raises the worker's recorded peak to process pid's VmHWM.
func (wp *workerProc) samplePeak(pid int) {
	if _, peak := obs.ProcRSS(pid); peak > wp.peakRSS.Load() {
		wp.peakRSS.Store(peak)
	}
}

// Client returns the fleet's transport — the value for
// manager.Options.Transport.
func (pc *ProcCluster) Client() *Client { return pc.client }

// Kill sends sig to worker i's current incarnation — the fault injection
// hook (SIGKILL for crash tests, SIGTERM for drain tests).
func (pc *ProcCluster) Kill(i int, sig syscall.Signal) error {
	pc.procs[i].mu.Lock()
	cmd := pc.procs[i].cmd
	pc.procs[i].mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("cluster: worker %d has no process", i)
	}
	return cmd.Process.Signal(sig)
}

// WaitExit blocks until worker i's current incarnation exits and returns its
// exit code.
func (pc *ProcCluster) WaitExit(i int, timeout time.Duration) (int, error) {
	pc.procs[i].mu.Lock()
	cmd := pc.procs[i].cmd
	exited := pc.procs[i].exited
	pc.procs[i].mu.Unlock()
	select {
	case <-exited:
		return cmd.ProcessState.ExitCode(), nil
	case <-time.After(timeout):
		return 0, fmt.Errorf("cluster: worker %d still running after %v", i, timeout)
	}
}

// WorkerPeakRSSMB returns the largest per-worker peak RSS observed, in MiB.
func (pc *ProcCluster) WorkerPeakRSSMB() float64 {
	var peak uint64
	for _, wp := range pc.procs {
		// One final opportunistic sample for workers still alive.
		wp.mu.Lock()
		cmd := wp.cmd
		wp.mu.Unlock()
		if cmd != nil && cmd.Process != nil {
			wp.samplePeak(cmd.Process.Pid)
		}
		peak = max(peak, wp.peakRSS.Load())
	}
	return float64(peak) / (1 << 20)
}

// Close tears the fleet down: the client's connections close, every worker
// gets a SIGTERM drain window, stragglers get SIGKILL, and the socket
// directory is removed.
func (pc *ProcCluster) Close() error {
	pc.closing.Store(true)
	if pc.client != nil {
		_ = pc.client.Close()
	}
	for _, wp := range pc.procs {
		wp.mu.Lock()
		cmd := wp.cmd
		wp.mu.Unlock()
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	deadline := time.After(5 * time.Second)
	for _, wp := range pc.procs {
		wp.mu.Lock()
		cmd := wp.cmd
		exited := wp.exited
		wp.mu.Unlock()
		if cmd == nil {
			continue
		}
		select {
		case <-exited:
		case <-deadline:
			_ = cmd.Process.Kill()
			<-exited
		}
	}
	pc.mon.Wait()
	return os.RemoveAll(pc.sockDir)
}

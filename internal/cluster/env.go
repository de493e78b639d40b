// The self-exec worker hook. Spawn re-executes the current binary with
// SOCIALTRUST_SHARDD_LISTEN set; any main that may host workers calls
// WorkerMainIfChild before flag parsing, turning that child process into a
// shard daemon instead of another copy of the parent command.
package cluster

import (
	"fmt"
	"os"
	"time"

	"socialtrust/internal/persist"
)

const (
	envListen   = "SOCIALTRUST_SHARDD_LISTEN"
	envStateDir = "SOCIALTRUST_SHARDD_STATE_DIR"
	envHealth   = "SOCIALTRUST_SHARDD_HEALTH"
	envLinger   = "SOCIALTRUST_SHARDD_LINGER"
)

// ParseFsync maps a policy name — socialtrust-shardd's -fsync flag — to
// persist's enum: "marks" (default, also ""), "always", "never".
func ParseFsync(s string) (persist.FsyncPolicy, error) {
	switch s {
	case "", "marks":
		return persist.FsyncMarks, nil
	case "always":
		return persist.FsyncAlways, nil
	case "never":
		return persist.FsyncNever, nil
	default:
		return persist.FsyncMarks, fmt.Errorf("cluster: unknown fsync policy %q (marks|always|never)", s)
	}
}

// ConfigFromEnv builds a worker Config from the SOCIALTRUST_SHARDD_*
// environment Spawn sets. The listen address is required; the WAL fsync
// policy stays at its default.
func ConfigFromEnv() (Config, error) {
	cfg := Config{
		Listen:     os.Getenv(envListen),
		StateDir:   os.Getenv(envStateDir),
		HealthAddr: os.Getenv(envHealth),
	}
	if cfg.Listen == "" {
		return cfg, fmt.Errorf("cluster: %s not set", envListen)
	}
	if s := os.Getenv(envLinger); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			return cfg, fmt.Errorf("cluster: bad %s: %w", envLinger, err)
		}
		cfg.Linger = d
	}
	return cfg, nil
}

// WorkerMainIfChild checks whether this process was spawned as a worker
// child and, if so, runs the daemon and exits. Call it from main before
// flag.Parse in any command that spawns clusters.
func WorkerMainIfChild() {
	if os.Getenv(envListen) == "" {
		return
	}
	cfg, err := ConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := NewWorker(cfg).RunSignals(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

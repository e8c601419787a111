package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"powerchop"
	"powerchop/internal/rescache"
)

// setupRepeats is how many fresh set-ups each run times; setup_s is
// their median. A set-up takes milliseconds, so many are cheap and the
// median damps the spawn-time jitter.
const setupRepeats = 51

// measureSetup times setupRepeats fresh set-ups and sets setup_s: for
// figures and tune, from spawning a new perfbench process until it is ready
// to make its first timed call; for serve, from spawning the server
// until /readyz answers 200.
func measureSetup(r *run) error {
	var xs []float64
	for i := 0; i < setupRepeats; i++ {
		var d time.Duration
		var err error
		if r.cfg.workload == "serve" {
			d, err = serverSetup(r, i)
		} else {
			d, err = probeSetup(r)
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, d.Seconds())
	}
	r.set("setup_s", median(xs), "s")
	r.note("setup_samples", len(xs))
	return nil
}

// serverSetup spawns a server on an empty cache directory, waits until
// it is ready and stops it.
func serverSetup(r *run, i int) (time.Duration, error) {
	srv, d, err := startServer(r.cfg.powerchop, filepath.Join(r.dir, fmt.Sprintf("setup-%d", i)), r.nproc, "")
	if err != nil {
		return 0, err
	}
	srv.stop()
	return d, nil
}

// probeSetup spawns this binary in -setup-probe mode and times it until
// it prints "ready".
func probeSetup(r *run) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-probe", r.cfg.workload,
		"-seed", strconv.FormatInt(r.cfg.seed, 10), "-work", r.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	if werr := cmd.Wait(); werr != nil {
		return 0, werr
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q", line)
	}
	return d, nil
}

// setupProbe is the child side of probeSetup: everything perfbench does
// before its first timed call.
func setupProbe(cfg config) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if _, err := loadGolden(cfg.golden); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.work, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache := rescache.New(filepath.Join(dir, "cache"), nil)
	switch cfg.probe {
	case "figures":
		powerchop.NewFigureRunner(figuresScale(cfg.seed),
			powerchop.WithJobs(nproc), powerchop.WithCache(cache))
	case "tune":
		for _, b := range tunePair(cfg.seed) {
			if _, err := powerchop.SuiteOf(b); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("no set-up probe for workload %q", cfg.probe)
	}
	return nil
}

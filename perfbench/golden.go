package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"powerchop"
)

// goldenJSON holds the output digests recorded from the code this
// benchmark was defined against (regenerate with -regen-golden).
//
//go:embed golden.json
var goldenJSON []byte

// golden maps every output the benchmark can produce to its SHA-256.
type golden struct {
	// Figures is the full figure set's RenderAll output.
	Figures string `json:"figures"`
	// Tune is the tune result JSON per benchmark pair ("gobmk+soplex").
	Tune map[string]string `json:"tune"`
	// Serve is the reply body per request key ("run gobmk powerchop").
	Serve map[string]string `json:"serve"`
}

func loadGolden(path string) (*golden, error) {
	data := goldenJSON
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return &g, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// match reports whether out has the recorded digest want.
func match(what, want string, out []byte) error {
	if want == "" {
		return fmt.Errorf("%s: no recorded digest", what)
	}
	if got := digest(out); got != want {
		return fmt.Errorf("%s: output digest %.12s, recorded %.12s", what, got, want)
	}
	return nil
}

// tune sweeps the powerchop policy over its default grid on benches.
func tune(ctx context.Context, benches []string, opts powerchop.Options) (*powerchop.TuneResult, error) {
	return powerchop.TuneContext(ctx, powerchop.TuneOptions{
		Policy:     powerchop.ManagerPowerChop,
		Benchmarks: benches,
		Options:    opts,
	})
}

// regenGolden records the digest of every output the workloads can
// produce with the current build and writes them to path.
func regenGolden(cfg config, stderr io.Writer) error {
	nproc := runtime.NumCPU()
	g := golden{Tune: map[string]string{}, Serve: map[string]string{}}

	fmt.Fprintln(stderr, "perfbench: rendering the figure set")
	var buf bytes.Buffer
	fr := powerchop.NewFigureRunner(0.5, powerchop.WithJobs(nproc))
	if err := fr.RenderAll(&buf); err != nil {
		return err
	}
	g.Figures = digest(buf.Bytes())

	for _, p := range tunePairs {
		benches := []string{p[0], p[1]}
		fmt.Fprintln(stderr, "perfbench: tuning", pairKey(benches))
		res, err := tune(context.Background(), benches, powerchop.Options{Parallelism: nproc})
		if err != nil {
			return err
		}
		out, err := json.Marshal(res)
		if err != nil {
			return err
		}
		g.Tune[pairKey(benches)] = digest(out)
	}

	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.work, "regen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, _, err := startServer(cfg.powerchop, dir, nproc, "")
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(nproc)
	for _, p := range servePairs {
		for _, route := range []string{"run", "explain"} {
			q := request{route: route, pair: p}
			fmt.Fprintln(stderr, "perfbench: requesting", q.key())
			// Each reply is requested twice: a digest is only recorded
			// for output that is deterministic.
			var sums [2]string
			for i := range sums {
				body, err := cl.get(srv.url + q.path())
				if err != nil {
					return fmt.Errorf("%s: %w", q.key(), err)
				}
				sums[i] = digest(body)
			}
			if sums[0] != sums[1] {
				return fmt.Errorf("%s: reply differs between two identical requests", q.key())
			}
			g.Serve[q.key()] = sums[0]
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.regen, append(b, '\n'), 0o644)
}

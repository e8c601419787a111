package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running `powerchop serve` process.
type server struct {
	cmd    *exec.Cmd
	url    string
	pid    string
	exited chan struct{}
}

// startServer spawns `powerchop serve` on a free loopback port with a
// fresh result-cache directory, and returns once /readyz answers 200,
// with the time from spawn to that answer. traceFile, when set, makes
// the server record every event (spans included) as JSONL.
func startServer(bin, cacheDir string, jobs int, traceFile string) (*server, time.Duration, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-cache", cacheDir,
		"-jobs", strconv.Itoa(jobs), "-access-log=false"}
	if traceFile != "" {
		args = append(args, "-trace", traceFile)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = pw
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	pw.Close()
	s := &server{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), exited: make(chan struct{})}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	var lastLine string
	go func() {
		// Drain the server's stderr for its whole life; the first
		// listening line carries the bound address.
		defer close(drained)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lastLine = sc.Text()
			if rest, ok := strings.CutPrefix(lastLine, "monitor listening on http://"); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		pr.Close()
	}()
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.exited:
		<-drained
		return nil, 0, fmt.Errorf("%s serve exited before listening: %s", bin, lastLine)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("%s serve did not start listening", bin)
	}
	// One connection polls readiness, so set-up uses no more than the
	// run's client connections.
	probe := newClient(1)
	defer probe.close()
	for {
		resp, err := probe.hc.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("%s serve exited before ready", bin)
		default:
		}
		if time.Since(t0) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("%s serve not ready after 60s", bin)
		}
		time.Sleep(time.Millisecond)
	}
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop asks the server to shut down (it flushes its trace on SIGTERM)
// and waits for it to exit, killing it if it takes too long.
func (s *server) stop() {
	if !s.alive() {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

// kill ends the server at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// client is perfbench's HTTP client, capped at a fixed number of
// connections.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get fetches url and returns the body; a non-2xx reply is an error.
func (c *client) get(url string) ([]byte, error) { return c.getID(url, "") }

// getID is get with an explicit X-Request-Id, which the server puts on
// the request's span.
func (c *client) getID(url, id string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

// scrapeMetrics reads the server's Prometheus exposition into a map from
// sample name (labels included) to value.
func (c *client) scrapeMetrics(base string) (map[string]float64, error) {
	body, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

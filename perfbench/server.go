package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running relmaxd process.
type server struct {
	cmd    *exec.Cmd
	base   string
	args   []string
	exited chan struct{}
	err    error // set before exited closes
	log    *os.File
}

// serverArgs are the flags the benchmark passes: the dataset and the
// durable data directory. Everything else stays at relmaxd's defaults.
func serverArgs(w workload, dataDir string) []string {
	args := []string{"-dataset", w.dataset, "-scale", strconv.FormatFloat(w.scale, 'g', -1, 64)}
	if w.durable {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// startServer execs relmaxd on a free loopback port and waits until
// /healthz answers ok. It returns the time from exec to that answer.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		s, setup, err := tryStart(bin, args, port, logPath)
		if err == nil {
			return s, setup, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

func tryStart(bin string, args []string, port int, logPath string) (*server, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	full := append([]string{"-addr", addr}, args...)
	s := &server{base: "http://" + addr, args: full, exited: make(chan struct{}), log: logf}
	s.cmd = exec.Command(bin, full...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// If the benchmark itself is killed, take the server down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("exec relmaxd: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("relmaxd exited during start-up (%v); see %s", s.err, logPath)
		default:
		}
		if healthy(client, s.base) {
			return s, time.Since(start), nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.stop()
	return nil, 0, errors.New("relmaxd did not become healthy within 60s")
}

func healthy(c *http.Client, base string) bool {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "ok"
}

// stop sends SIGTERM, waits for relmaxd's graceful shutdown, and kills
// it if that takes longer than its grace period plus a margin.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// peakRSSMB returns the exited server's peak resident set in MiB: the
// kernel's ru_maxrss for the process, the figure /proc reports as VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	<-s.exited
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok || ru.Maxrss <= 0 {
		return 0, errors.New("no peak resident set for relmaxd")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// getJSON fetches base+path and decodes the JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters are the serving counters the benchmark records as deltas over
// the measured window, from relmaxd's /metrics or from Engine.Stats.
// /metrics does not export checkpoints, so relmaxd's stay 0.
type counters struct {
	CacheHits, CacheMisses, CacheInvalidated uint64
	AnytimeEstimates, AnytimeSamples         uint64
	DeltaCommits, Compactions, Applies       uint64
	JobsRejected, JobsFailed                 uint64
	Checkpoints                              uint64 `json:",omitempty"`
}

func scrapeCounters(ctx context.Context, c *http.Client, base string) (counters, error) {
	var m struct {
		Jobs struct {
			Failed   uint64 `json:"failed"`
			Rejected uint64 `json:"rejected"`
		} `json:"jobs"`
		Cache struct {
			Hits        uint64 `json:"hits"`
			Misses      uint64 `json:"misses"`
			Invalidated uint64 `json:"invalidated"`
		} `json:"cache"`
		Anytime struct {
			Estimates   uint64 `json:"estimates"`
			SamplesUsed uint64 `json:"samples_used"`
		} `json:"anytime"`
		Datasets map[string]struct {
			Mutations struct {
				Applies      uint64 `json:"applies"`
				DeltaCommits uint64 `json:"delta_commits"`
				Compactions  uint64 `json:"compactions"`
			} `json:"mutations"`
		} `json:"datasets"`
	}
	if err := getJSON(ctx, c, base+"/metrics", &m); err != nil {
		return counters{}, err
	}
	out := counters{
		CacheHits: m.Cache.Hits, CacheMisses: m.Cache.Misses, CacheInvalidated: m.Cache.Invalidated,
		AnytimeEstimates: m.Anytime.Estimates, AnytimeSamples: m.Anytime.SamplesUsed,
		JobsRejected: m.Jobs.Rejected, JobsFailed: m.Jobs.Failed,
	}
	for _, d := range m.Datasets {
		out.Applies += d.Mutations.Applies
		out.DeltaCommits += d.Mutations.DeltaCommits
		out.Compactions += d.Mutations.Compactions
	}
	return out, nil
}

func (a counters) sub(b counters) counters {
	return counters{
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		CacheInvalidated: a.CacheInvalidated - b.CacheInvalidated,
		AnytimeEstimates: a.AnytimeEstimates - b.AnytimeEstimates, AnytimeSamples: a.AnytimeSamples - b.AnytimeSamples,
		DeltaCommits: a.DeltaCommits - b.DeltaCommits, Compactions: a.Compactions - b.Compactions,
		Applies: a.Applies - b.Applies, JobsRejected: a.JobsRejected - b.JobsRejected,
		JobsFailed: a.JobsFailed - b.JobsFailed, Checkpoints: a.Checkpoints - b.Checkpoints,
	}
}

// healthEpoch returns the dataset's epoch as /healthz reports it.
func healthEpoch(ctx context.Context, c *http.Client, base, dataset string) (uint64, error) {
	var h struct {
		Datasets map[string]struct {
			Epoch uint64 `json:"epoch"`
		} `json:"datasets"`
	}
	if err := getJSON(ctx, c, base+"/healthz", &h); err != nil {
		return 0, err
	}
	d, ok := h.Datasets[dataset]
	if !ok {
		return 0, fmt.Errorf("/healthz does not list dataset %q", dataset)
	}
	return d.Epoch, nil
}

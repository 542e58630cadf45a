package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// phase tells warm-up samples, which are never reported as metrics, from
// measured ones.
type phase int

const (
	phaseWarmup phase = iota
	phaseMeasure
)

func (p phase) String() string { return [...]string{"warmup", "measure"}[p] }

// sample is one request as the load generator saw it.
type sample struct {
	op    op
	phase phase
	// start is when the request was sent; for writes latency runs from the
	// scheduled due time instead, and late is send minus due.
	start   time.Time
	latency time.Duration
	late    time.Duration
	status  int
	err     error
	// body is the result payload: the response for /v1 and mutations, the
	// final GET /v2/jobs/{id} for multi jobs.
	body []byte
}

func (s sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// window fixes the phases of one run: warm-up from start, measurement
// from measure until end.
type window struct {
	start, measure, end time.Time
}

func newWindow(warmup, measure time.Duration) window {
	now := time.Now()
	return window{start: now, measure: now.Add(warmup), end: now.Add(warmup + measure)}
}

func (w window) phaseAt(t time.Time) phase {
	if t.Before(w.measure) {
		return phaseWarmup
	}
	return phaseMeasure
}

// httpRun is the outcome of driving relmaxd over HTTP.
type httpRun struct {
	win     window
	samples []sample
	// counters are relmaxd /metrics deltas over the measured window.
	counters counters
	// backlog counts writes due before the end that were never sent.
	backlog int
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// driveHTTP runs the read lanes (closed loop) and the write lane (open
// loop on the plan's schedule) against base until win.end. Each lane holds
// at most one connection, so the run uses readLanes + (1 if writes)
// connections.
func driveHTTP(c *http.Client, base string, w workload, p *plan, win window) (*httpRun, error) {
	run := &httpRun{win: win}
	var (
		mu        sync.Mutex
		before    counters
		crossed   atomic.Bool
		scrapeErr error
	)
	// The first lane to cross into the measured window scrapes /metrics
	// on its own connection before sending, so no extra connection opens.
	// Only that lane writes before and scrapeErr; wg.Wait orders the reads.
	boundary := func() {
		if !time.Now().Before(win.measure) && crossed.CompareAndSwap(false, true) {
			before, scrapeErr = scrapeCounters(context.Background(), c, base)
		}
	}
	record := func(s []sample) {
		mu.Lock()
		run.samples = append(run.samples, s...)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for i := 0; i < w.readLanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []sample
			for {
				boundary()
				now := time.Now()
				if !now.Before(win.end) {
					break
				}
				o := p.take()
				s := send(c, base, w.dataset, o)
				s.phase = win.phaseAt(s.start)
				out = append(out, s)
			}
			record(out)
		}()
	}
	if len(p.writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []sample
			for i, o := range p.writes {
				due := win.start.Add(o.Due)
				if !due.Before(win.end) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				boundary()
				if !time.Now().Before(win.end) {
					mu.Lock()
					run.backlog = countDue(p.writes[i:], win)
					mu.Unlock()
					break
				}
				s := send(c, base, w.dataset, o)
				s.late = s.start.Sub(due)
				s.latency += s.late
				s.phase = win.phaseAt(due)
				out = append(out, s)
			}
			record(out)
		}()
	}
	wg.Wait()
	if scrapeErr != nil {
		return nil, fmt.Errorf("scrape /metrics at the window start: %w", scrapeErr)
	}
	if !crossed.Load() {
		return nil, fmt.Errorf("no lane reached the measured window")
	}
	after, err := scrapeCounters(context.Background(), c, base)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics at the window end: %w", err)
	}
	run.counters = after.sub(before)
	return run, nil
}

func countDue(writes []op, win window) int {
	n := 0
	for _, o := range writes {
		if win.start.Add(o.Due).Before(win.end) {
			n++
		}
	}
	return n
}

// send performs one op and times it end to end, body read included. A
// multi op is a job: submit, follow its event stream to the end, then
// fetch the result.
func send(c *http.Client, base, dataset string, o op) sample {
	s := sample{op: o, start: time.Now()}
	s.status, s.body, s.err = post(c, base+o.path(dataset), o.body())
	if o.Kind == kindMulti && s.ok() {
		s.status, s.body, s.err = awaitJob(c, base, s.body)
	}
	s.latency = time.Since(s.start)
	return s
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// awaitJob follows a submitted job's NDJSON event stream until the job
// ends, then returns GET /v2/jobs/{id}.
func awaitJob(c *http.Client, base string, submitted []byte) (int, []byte, error) {
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(submitted, &job); err != nil || job.ID == "" {
		return 0, nil, fmt.Errorf("submit response without a job id: %q", submitted)
	}
	status, events, err := get(c, base+"/v2/jobs/"+job.ID+"/events")
	if err != nil || status != http.StatusOK {
		return status, events, err
	}
	if !bytes.Contains(events, []byte(`"done":true`)) {
		return 0, events, fmt.Errorf("job %s event stream ended without a final status line", job.ID)
	}
	return get(c, base+"/v2/jobs/"+job.ID)
}

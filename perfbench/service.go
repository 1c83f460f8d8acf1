package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/core"
	"autopilot/internal/pool"
	"autopilot/internal/server"
)

// mixSetupReps is how many times a service-mix run builds its stream and
// starts a server; setup_s is the median.
const mixSetupReps = 25

// prepared is one stream entry ready to send.
type prepared struct {
	streamEntry
	hash string
	key  string // specKey of the request's spec, to match pipeline runs
	body []byte
}

// mixJob is one job as a client saw it.
type mixJob struct {
	entry     int
	dur       time.Duration // POST sent to result received
	submit    time.Duration // POST round trip
	queueWait time.Duration // the job's Started − Submitted
	exec      time.Duration // the job's Finished − Started
	done      time.Time
	cacheHit  bool
	result    json.RawMessage
	err       error
}

// liveServer is an autopilotd server behind a loopback listener.
type liveServer struct {
	srv    *server.Server
	http   *http.Server
	url    string
	served chan error
}

// startServer starts an autopilotd server with cfg on a loopback port and
// waits until /healthz answers.
func startServer(ctx context.Context, cfg server.Config, client *http.Client) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { ls.served <- ls.http.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ls.url+"/healthz", nil) // a fixed URL always parses
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			ls.stop()
			return nil, fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, waits for Serve to return, and closes the
// server, which cancels any live job and waits for its workers.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = ls.http.Shutdown(ctx) // on timeout Close below still ends every job
	ls.http.Close()
	<-ls.served
	ls.srv.Close()
}

// mix is one service-mix run.
type mix struct {
	cfg    config
	stream []prepared
	client *http.Client
	// setup is the median set-up time at the reference host speed,
	// setupRaw as measured.
	setup, setupRaw float64
}

// runMix measures the service mix: one closed-loop client per CPU, each
// its own tenant, submitting a seeded request stream to an in-process
// autopilotd.
func runMix(ctx context.Context, cfg config) (*outcome, error) {
	m := &mix{cfg: cfg, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * cfg.workers}}}
	defer m.client.CloseIdleConnections()
	if cfg.trace {
		return m.traced(ctx)
	}
	speed := startProbe(nil, 0)
	defer speed.stop()
	ls, err := m.setUp(ctx, server.Config{})
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	c, pc := cpuTime(), speed.cpu()
	start := time.Now()
	jobs := m.drive(ctx, ls, cfg.window)
	cpu := cpuTime() - c - (speed.cpu() - pc)
	peak := rss.stop(nthDone(jobs, mixRSSJobs))
	factor := speed.stop().factor
	ls.stop()
	o := &outcome{}
	qs := m.check(ctx, o, jobs)
	last := start
	for _, j := range jobs {
		if j.done.After(last) {
			last = j.done
		}
	}
	var hvs, ms []float64
	for _, q := range qs {
		hvs, ms = append(hvs, q.hypervolume), append(ms, q.missions)
	}
	o.addEndToEnd(m.setup, m.setupRaw, factor, ratio(cpu.Seconds(), float64(len(jobs))), median(hvs), median(ms), peak)
	o.addWall(jobSeconds(jobs), last.Sub(start).Seconds())
	return o, nil
}

// mixRSSJobs is how many jobs the mix's resident memory is measured over.
// The server caches every result, so its memory grows with the jobs it has
// served; over a fixed number of them a faster server does not read as a
// bigger one. Three blocks of the stream: the slowest runs seen served
// about 290 jobs in 30 s.
const mixRSSJobs = 144 // three blocks: 36 fresh requests and 12 repeats each

// nthDone returns when the nth job to finish finished, or the zero time
// when fewer finished.
func nthDone(jobs []mixJob, n int) time.Time {
	if len(jobs) < n {
		return time.Time{}
	}
	done := make([]time.Time, len(jobs))
	for i, j := range jobs {
		done[i] = j.done
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	return done[n-1]
}

// jobSeconds returns the wall times of the jobs that succeeded.
func jobSeconds(jobs []mixJob) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.err == nil {
			out = append(out, j.dur.Seconds())
		}
	}
	return out
}

// setUp builds and prepares the request stream and starts a server,
// several times; it keeps the last server, stops the others, and records
// the median set-up time.
func (m *mix) setUp(ctx context.Context, scfg server.Config) (*liveServer, error) {
	var started []*liveServer
	setup, raw, err := setupTime(mixSetupReps, func() error {
		stream, err := prepareStream(mixStream(m.cfg.seed, m.cfg.size))
		if err != nil {
			return err
		}
		ls, err := startServer(ctx, scfg, m.client)
		if err != nil {
			return err
		}
		started = append(started, ls)
		m.stream = stream
		return nil
	})
	if err != nil {
		for _, ls := range started {
			ls.stop()
		}
		return nil, err
	}
	last := len(started) - 1
	for _, ls := range started[:last] {
		ls.stop()
	}
	m.setup, m.setupRaw = setup, raw
	return started[last], nil
}

// prepareStream validates and encodes every request of a stream.
func prepareStream(stream []streamEntry) ([]prepared, error) {
	out := make([]prepared, len(stream))
	for i, e := range stream {
		if err := e.Req.Validate(); err != nil {
			return nil, fmt.Errorf("stream entry %d: %w", i, err)
		}
		spec, err := e.Req.Spec()
		if err != nil {
			return nil, fmt.Errorf("stream entry %d: %w", i, err)
		}
		body, err := json.Marshal(e.Req)
		if err != nil {
			return nil, err
		}
		out[i] = prepared{streamEntry: e, hash: e.Req.Hash(), key: specKey(spec), body: body}
	}
	return out, nil
}

// specKey identifies a pipeline run by what differs between stream
// requests, so a wrapped Pipeline call can be matched to its job.
func specKey(s core.Spec) string {
	return fmt.Sprintf("%s/%v/%d/%d/%d", s.Platform.Name, s.Scenario, s.Phase2.Seed, s.Phase2.CandidatePool, s.Phase2.BO.Iterations)
}

// drive runs the closed loop: one client per CPU, each sending its next
// request only after its previous job's event stream has ended and its
// result is read. Clients take entries from the stream in order and stop
// taking new ones once the window has passed.
func (m *mix) drive(ctx context.Context, ls *liveServer, window time.Duration) []mixJob {
	var next atomic.Int64
	start := time.Now()
	var mu sync.Mutex
	var jobs []mixJob
	var wg sync.WaitGroup
	for c := 0; c < m.cfg.workers; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < window {
				i := int(next.Add(1) - 1)
				if i >= len(m.stream) {
					return
				}
				j := m.do(ctx, ls, tenant, i)
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(fmt.Sprintf("tenant-%d", c+1))
	}
	wg.Wait()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].entry < jobs[b].entry })
	return jobs
}

// wireJob is the part of api.Job the client reads.
type wireJob struct {
	ID        string          `json:"id"`
	State     api.JobState    `json:"state"`
	CacheHit  bool            `json:"cache_hit"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started"`
	Finished  *time.Time      `json:"finished"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

// do submits stream entry i, follows its event stream to the end, and
// fetches the finished job.
func (m *mix) do(ctx context.Context, ls *liveServer, tenant string, i int) mixJob {
	j := mixJob{entry: i}
	t := time.Now()
	var ack wireJob
	j.err = m.call(ctx, http.MethodPost, ls.url+"/v1/jobs", tenant, m.stream[i].body, http.StatusAccepted, &ack)
	j.submit = time.Since(t)
	if j.err == nil {
		j.err = m.call(ctx, http.MethodGet, ls.url+"/v1/jobs/"+ack.ID+"/events", tenant, nil, http.StatusOK, nil)
	}
	var fin wireJob
	if j.err == nil {
		j.err = m.call(ctx, http.MethodGet, ls.url+"/v1/jobs/"+ack.ID, tenant, nil, http.StatusOK, &fin)
	}
	j.done = time.Now()
	j.dur = j.done.Sub(t)
	if j.err != nil {
		return j
	}
	if fin.State != api.JobDone {
		j.err = fmt.Errorf("job %s ended %s: %s", fin.ID, fin.State, fin.Error)
		return j
	}
	j.cacheHit, j.result = fin.CacheHit, fin.Result
	if fin.Started != nil {
		j.queueWait = fin.Started.Sub(fin.Submitted)
		if fin.Finished != nil {
			j.exec = fin.Finished.Sub(*fin.Started)
		}
	}
	return j
}

// call makes one HTTP request and decodes the response into v; a nil v
// reads the body to its end. Any status but want is an error.
func (m *mix) call(ctx context.Context, method, url, tenant string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the message only
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// qualitySet is how many of the stream's first fresh requests the mix's
// hypervolume and missions are taken over: one block, every (uav, scenario,
// budget stratum) combination once.
const qualitySet = 9 * mixStrata

// check verifies every job of one or more runs, each on its own server: the
// job succeeded, every job of a request returned the bytes of that request's
// computation on its server, and that computation equals a direct core.Run
// of the request. It returns the quality of the stream's first qualitySet
// fresh requests, from their direct runs, whether or not a client reached
// them, so the set measured does not depend on how fast the server was.
func (m *mix) check(ctx context.Context, o *outcome, runs ...[]mixJob) []quality {
	first := map[string][]byte{} // request hash -> bytes of its computation
	var order []string           // the hashes to run directly, served ones first
	for _, jobs := range runs {
		computed := map[string]bool{}
		for _, j := range jobs {
			o.attempted++
			h := m.stream[j.entry].hash
			if j.err != nil {
				o.fail("entry %d: %v", j.entry, j.err)
				continue
			}
			if !j.cacheHit {
				if computed[h] {
					o.fail("entry %d: request computed twice on one server", j.entry)
				}
				computed[h] = true
			}
		}
		for _, j := range jobs {
			h := m.stream[j.entry].hash
			if j.err != nil {
				continue
			}
			b, err := canonical(j.result)
			switch {
			case err != nil:
				o.fail("entry %d: decode result: %v", j.entry, err)
			case first[h] == nil:
				first[h] = b
				order = append(order, h)
			case !bytes.Equal(b, first[h]):
				o.fail("entry %d: result differs from the first computation of its request", j.entry)
			}
		}
	}
	byHash := map[string]api.CoDesignRequest{}
	var set []string
	for _, p := range m.stream {
		byHash[p.hash] = p.Req
		if p.Repeat < 0 && len(set) < qualitySet {
			set = append(set, p.hash)
			if first[p.hash] == nil { // not served: a check of its own
				o.attempted++
				order = append(order, p.hash)
			}
		}
	}
	// The reference runs are independent; run them one per CPU.
	type ref struct {
		q   quality
		err error
	}
	refs, err := pool.Map(ctx, m.cfg.workers, order, func(ctx context.Context, h string) (ref, error) {
		req := byHash[h]
		spec, err := req.Spec()
		if err != nil {
			return ref{err: err}, nil
		}
		spec.Workers = 1
		rep, err := core.Run(ctx, spec)
		if err != nil {
			return ref{err: fmt.Errorf("direct run: %w", err)}, nil
		}
		want := serverResult(req, rep)
		q, err := checkResult(want)
		if err != nil {
			return ref{err: err}, nil
		}
		b, err := canonical(want)
		if err != nil {
			return ref{err: err}, nil
		}
		if first[h] != nil && !bytes.Equal(b, first[h]) {
			return ref{err: errors.New("served result differs from a direct core.Run")}, nil
		}
		return ref{q: q}, nil
	})
	if err != nil {
		o.fail("reference runs: %v", err)
		return nil
	}
	byRef := map[string]ref{}
	for i, r := range refs {
		if r.err != nil {
			o.fail("request %s: %v", order[i][:12], r.err)
		}
		byRef[order[i]] = r
	}
	var qs []quality
	for _, h := range set {
		if r := byRef[h]; r.err == nil {
			qs = append(qs, r.q)
		}
	}
	return qs
}

// traced runs the mix twice on fresh servers for half the window each:
// untraced, then with the server's Pipeline wrapped by a recorder.
func (m *mix) traced(ctx context.Context) (*outcome, error) {
	o := &outcome{}
	ls, err := m.setUp(ctx, server.Config{})
	if err != nil {
		return nil, err
	}
	before := readUsage()
	plain := m.drive(ctx, ls, m.cfg.window/2)
	use := readUsage().minus(before)
	ls.stop()

	rec := newRecorder()
	if ls, err = startServer(ctx, server.Config{Metrics: rec.reg, Pipeline: rec.pipeline}, m.client); err != nil {
		return nil, err
	}
	jobs := m.drive(ctx, ls, m.cfg.window/2)
	hits, misses := ls.srv.CacheStats()
	ls.stop()
	m.check(ctx, o, plain, jobs)

	lm := rec.layers(o)
	rec.serverLayers(lm, m.stream, jobs, hits, misses)
	use.perJob(lm, len(plain))
	lm["obs.trace_overhead_ratio"] = ratio(median(jobSeconds(jobs)), median(jobSeconds(plain)))
	return rec.finish(m.cfg, o, lm)
}

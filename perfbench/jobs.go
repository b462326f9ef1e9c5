package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exemplars/integration"
	"repro/internal/sched"
)

const (
	// jobRate is the open loop's mean arrival rate, about an eighth of
	// what one generator sustains on a 2-vCPU host. The queue stays near
	// empty, so the tail shows the system rather than a backlog, and host
	// noise is not amplified by queueing.
	jobRate    = 250
	jobN       = 100_000
	jobWidth   = 2
	jobTenants = 8
)

// jobsEnv is an in-process scheduler daemon serving its HTTP API on
// loopback, and the client that drives it.
type jobsEnv struct {
	s      *sched.Scheduler
	srv    *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

// startJobs brings the daemon up and waits until it answers a health check.
// The client keeps at most conns connections.
func startJobs(conns int) (*jobsEnv, error) {
	s, err := sched.New(sched.Config{Platform: cluster.RaspberryPi()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	e := &jobsEnv{
		s:    s,
		srv:  &http.Server{Handler: sched.NewHandler(s)},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
	}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	resp, err := e.client.Get(e.base + "/api/v1/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *jobsEnv) close() {
	e.client.CloseIdleConnections()
	_ = e.srv.Close() // closing the listener cannot fail in a way we act on
	<-e.done
	e.s.Close()
}

// arrivals draws open-loop due times (offsets from the start) for a window:
// exponential gaps at jobRate, since students submit independently.
func arrivals(seed int64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var dues []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / jobRate * float64(time.Second))
		if t >= window {
			return dues
		}
		dues = append(dues, t)
	}
}

// openLoop starts send(i) at start+dues[i] from one goroutine, with at most
// conc sends in flight. When every slot is busy the generator waits, and
// the send starts late; sent[i] records when it really started. It returns
// once every send has returned.
func openLoop(start time.Time, dues []time.Duration, conc int, send func(i int)) []time.Time {
	sent := make([]time.Time, len(dues))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i, d := range dues {
		time.Sleep(time.Until(start.Add(d)))
		sem <- struct{}{}
		sent[i] = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			send(i)
		}(i)
	}
	wg.Wait()
	return sent
}

// jobRecord is one submitted job as the client saw it.
type jobRecord struct {
	due, sent, answered time.Time
	code                int
	id                  string
	err                 error
}

// jobsPhase is one open-loop stretch against a fresh daemon.
type jobsPhase struct {
	recs     []jobRecord
	statuses map[string]sched.JobStatus
	logs     map[string]string
	stats    sched.Stats
	tally    tally
	latMs    []float64 // due → Finished; +Inf for failed or refused jobs
	start    time.Time
}

// runJobs runs one open-loop window against a fresh daemon and checks every
// job. It is a probe, so its spans carry unit -1; a job's spans hang off its
// "job" span.
func runJobs(seed int64, window time.Duration, tr *tracer) (*jobsPhase, error) {
	conns := runtime.NumCPU()
	e, err := startJobs(conns)
	if err != nil {
		return nil, err
	}
	defer e.close()

	dues := arrivals(seed, window)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	tenants := make([]int, len(dues))
	for i := range tenants {
		tenants[i] = rng.Intn(jobTenants)
	}
	p := &jobsPhase{recs: make([]jobRecord, len(dues)), start: time.Now().Add(5 * time.Millisecond)}
	sent := openLoop(p.start, dues, conns, func(i int) {
		r := &p.recs[i]
		body, _ := json.Marshal(sched.JobSpec{ // a JobSpec always marshals
			ID:      fmt.Sprintf("job-%06d", i),
			Tenant:  fmt.Sprintf("student-%d", tenants[i]),
			Program: "integration",
			Args:    map[string]string{"n": strconv.Itoa(jobN)},
			Width:   jobWidth,
		})
		resp, err := e.client.Post(e.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = err
			r.answered = time.Now()
			return
		}
		var st sched.JobStatus
		r.err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		r.answered = time.Now()
		r.code, r.id = resp.StatusCode, st.ID
	})
	for i := range p.recs {
		p.recs[i].due = p.start.Add(dues[i])
		p.recs[i].sent = sent[i]
	}

	if err := waitIdle(e.s, 60*time.Second); err != nil {
		return nil, err
	}
	p.stats = e.s.Stats()
	var list []sched.JobStatus
	if err := getJSON(e.client, e.base+"/api/v1/jobs", &list); err != nil {
		return nil, err
	}
	p.statuses = make(map[string]sched.JobStatus, len(list))
	p.logs = make(map[string]string, len(list))
	for _, st := range list {
		p.statuses[st.ID] = st
		out, err := e.s.Logs(st.ID)
		if err != nil {
			return nil, err
		}
		p.logs[st.ID] = string(out)
	}
	p.account(jobOracle(), tr)
	return p, nil
}

// jobOracle is the output a correct integration job prints, from the
// sequential trapezoid rule on the same n.
func jobOracle() string {
	pi, _ := integration.Trapezoid(integration.QuarterCircle, 0, 1, jobN) // n > 0
	return fmt.Sprintf("pi ≈ %.9f (error %.2g) across %d processes\n", pi, integration.AbsError(pi), jobWidth)
}

// account checks every job and times it from when it was due, so a stall
// that delays the generator is charged to the jobs it delayed.
func (p *jobsPhase) account(want string, tr *tracer) {
	for _, r := range p.recs {
		p.tally.attempted++
		st, ok := p.statuses[r.id]
		switch {
		case r.code == http.StatusTooManyRequests:
			p.tally.refused++
		case r.err != nil || r.code != http.StatusCreated || !ok ||
			st.State != "succeeded" || p.logs[r.id] != want:
			p.tally.failed++
		default:
			p.latMs = append(p.latMs, ms(st.Finished.Sub(r.due)))
			id := tr.id()
			tr.record(id, 0, -1, -1, "job", r.due, st.Finished)
			tr.record(0, id, -1, -1, "sched.submit", r.sent, r.answered)
			tr.record(0, id, -1, -1, "sched.queue", st.Submitted, st.Started)
			tr.record(0, id, -1, -1, "sched.run", st.Started, st.Finished)
			continue
		}
		p.latMs = append(p.latMs, math.Inf(1))
	}
}

// series pulls one duration per job that was admitted and succeeded.
func (p *jobsPhase) series(f func(st sched.JobStatus) time.Duration) []float64 {
	var xs []float64
	for _, r := range p.recs {
		if st, ok := p.statuses[r.id]; ok && st.State == "succeeded" {
			xs = append(xs, ms(f(st)))
		}
	}
	return xs
}

func (p *jobsPhase) genLag() []float64 {
	xs := make([]float64, len(p.recs))
	for i, r := range p.recs {
		xs[i] = ms(r.sent.Sub(r.due))
	}
	return xs
}

// waitIdle polls until no job is queued, running or retrying.
func waitIdle(s *sched.Scheduler, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st := s.Stats()
		if st.Queued+st.Running+st.Retrying == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("jobs still pending after the run")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (p *jobsPhase) submitMs() []float64 {
	xs := make([]float64, len(p.recs))
	for i, r := range p.recs {
		xs[i] = ms(r.answered.Sub(r.sent))
	}
	return xs
}

package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// fakePhase drives openLoop with a submit that stalls on job stall, and
// answers job refuse with a 429, then accounts the phase as runJobs does.
func fakePhase(t *testing.T, n, stall, refuse int, stallFor time.Duration) *jobsPhase {
	t.Helper()
	const want = "ok\n"
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * time.Millisecond
	}
	p := &jobsPhase{
		recs:     make([]jobRecord, n),
		statuses: map[string]sched.JobStatus{},
		logs:     map[string]string{},
		start:    time.Now(),
	}
	var mu sync.Mutex
	sent := openLoop(p.start, dues, 1, func(i int) {
		t0 := time.Now()
		if i == stall {
			time.Sleep(stallFor)
		}
		r := &p.recs[i]
		r.answered = time.Now()
		if i == refuse {
			r.code = http.StatusTooManyRequests
			return
		}
		r.code, r.id = http.StatusCreated, fmt.Sprintf("job-%d", i)
		mu.Lock()
		p.statuses[r.id] = sched.JobStatus{ID: r.id, State: "succeeded", Submitted: t0, Started: t0, Finished: time.Now()}
		p.logs[r.id] = want
		mu.Unlock()
	})
	for i := range p.recs {
		p.recs[i].due = p.start.Add(dues[i])
		p.recs[i].sent = sent[i]
	}
	p.account(want, nil)
	return p
}

func TestStallInflatesLaterJobsLatency(t *testing.T) {
	const stallFor = 60 * time.Millisecond
	p := fakePhase(t, 120, 20, -1, stallFor)
	// Jobs due during the stall are sent only when it ends. Timed from
	// when they were sent they look fast; timed from when they were due,
	// they carry the wait the stall imposed.
	for i := 21; i < 40; i++ {
		due := p.recs[i].due
		stallEnd := p.recs[20].answered
		if lat := time.Duration(p.latMs[i] * float64(time.Millisecond)); lat < stallEnd.Sub(due) {
			t.Errorf("job %d: latency %v from due, but it could not start before %v", i, lat, stallEnd.Sub(due))
		}
		if fromSend := p.recs[i].answered.Sub(p.recs[i].sent); fromSend > stallFor/2 {
			t.Errorf("job %d: send took %v; the fake submit should be instant", i, fromSend)
		}
	}
	lag, err := percentile(p.genLag(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lag < float64(stallFor/time.Millisecond)/4 {
		t.Errorf("generator lateness p90 %.2f ms does not show a %v stall", lag, stallFor)
	}
	p90, err := percentile(p.latMs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 < lag {
		t.Errorf("latency p90 %.2f ms below generator lateness p90 %.2f ms", p90, lag)
	}
}

func TestRefusedJobIsAFailure(t *testing.T) {
	p := fakePhase(t, 30, -1, 7, 0)
	if p.tally.attempted != 30 || p.tally.refused != 1 || p.tally.failed != 0 {
		t.Fatalf("tally %+v, want 30 attempted, 1 refused", p.tally)
	}
	if got := p.tally.errorRate(); got != 1.0/30 {
		t.Errorf("error rate %g, want 1/30", got)
	}
	if !math.IsInf(p.latMs[7], 1) {
		t.Errorf("refused job latency %g, want +Inf", p.latMs[7])
	}
}

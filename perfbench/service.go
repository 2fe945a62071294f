package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"meshroute/internal/scenario"
	"meshroute/internal/service"
)

const (
	// serviceRate is the open loop's fixed arrival rate in requests per
	// second. At the 4:4:2 mix below it asks for about 120 job executions
	// a second, under a tenth of one core of engine time, well under what
	// two server workers serve on two cores.
	serviceRate = 200
	// serviceConns bounds the client's connections and request senders.
	serviceConns = 2
	// serviceWorkers is the server's job worker pool.
	serviceWorkers = 2
	// hitLag is how long before a hit its spec was first submitted: far
	// more than a job takes, far less than the ~2 s of results the
	// default 256-entry cache holds at this rate.
	hitLag = 500 * time.Millisecond
	// requestTimeout bounds one request from send to done.
	requestTimeout = 60 * time.Second
)

// Request classes of the service mix.
const (
	classHit  = iota // a spec submitted before, answered from the cache
	classMiss        // a fresh spec, executed
	classDup         // [A, A] with A fresh: executed once, the second deduped
)

// classNames names the request classes in failure messages.
var classNames = [...]string{classHit: "hit", classMiss: "miss", classDup: "dup"}

// request is one submission of the open loop.
type request struct {
	class int
	spec  []byte // the job's spec; a dup submits it twice
	body  []byte

	due, sent, accepted, done time.Time
	code                      int
	statuses                  []service.JobStatus
	err                       error
}

// jobSpec is the service mix's job: a random permutation on a 16×16
// mesh, about half a millisecond of engine time, so HTTP, parsing,
// fingerprints, the cache and stream encoding carry most of a request.
// Jobs of 32×32 spent 85% of a miss in the engine, and their queueing
// multiplied the host's speed swings in the latency tail.
func jobSpec(seed int64) []byte {
	return newCell(scenario.Spec{Name: "job", N: 16, K: 2, Router: "thm15",
		Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: seed}}).spec
}

// serviceMix drives the HTTP service with an open loop of small jobs at a
// fixed rate over loopback, then replays every executed spec in-process
// to check each result.
func serviceMix(cfg config, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	base := rng.Int63n(1 << 40)
	hit := jobSpec(base)
	// The mix is fixed at 4 hits, 4 misses and 2 dups in every block of
	// 10 requests, shuffled anew for each block. A hit resubmits the spec
	// of the latest executed request due at least hitLag earlier, whose
	// result is long cached; until there is one it submits the pre-warmed
	// spec. (A single hot spec would not stay a hit: the cache evicts in
	// insertion order, whatever an entry's hits.)
	block := []int{classHit, classHit, classHit, classHit, classMiss, classMiss, classMiss, classMiss, classDup, classDup}
	reqs := make([]request, int(serviceRate*cfg.measured().Seconds()))
	back := int(hitLag.Seconds() * serviceRate)
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := &reqs[i]
		r.class = block[i%len(block)]
		if r.class != classHit {
			r.spec = jobSpec(base + 1 + int64(i)) // fresh: no other request shares it
		} else {
			r.spec = hit
			for j := i - back; j >= 0; j-- {
				if reqs[j].class != classHit {
					r.spec = reqs[j].spec
					break
				}
			}
		}
		r.body = r.spec
		if r.class == classDup {
			r.body = []byte("[" + string(r.spec) + "," + string(r.spec) + "]")
		}
	}
	hitRef, err := runCell(cell{name: "hit", spec: hit, stream: true}, 0)
	rep.op("hit spec in-process", err)

	heapBase := liveHeap()
	var setups []float64
	var ls *liveServer
	for i := 0; i < setupReps; i++ {
		if ls != nil {
			ls.close()
		}
		runtime.GC()
		t0 := time.Now()
		ls, err = startServer(hit)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.op("warm-up job", sameStats("warm-up job", ls.warm.Stats.RouteStats(), hitRef.stats))
	}
	defer ls.close()

	a0 := totalAlloc()
	ls.openLoop(reqs)
	alloc := totalAlloc() - a0
	heap := int64(liveHeap()) - int64(heapBase)
	hitRatio, err := ls.cacheHitRatio()
	if err != nil {
		return err
	}

	// Replay each executed spec in-process: the reference every service
	// result must equal, and the hop count of the server's run time.
	refs := map[string]cellRun{string(hit): hitRef}
	var executed []cell
	var replay time.Duration
	for _, r := range reqs {
		if _, done := refs[string(r.spec)]; done {
			continue
		}
		c := cell{name: fmt.Sprintf("job %d", len(executed)), spec: r.spec, stream: true}
		cr, err := runCell(c, 0)
		rep.op(c.name+" in-process", err)
		refs[string(r.spec)] = cr
		executed = append(executed, c)
		replay += cr.run
	}

	// Latency quantiles are taken per second of due times and reported
	// as their median over the seconds, like the per-pass quantiles of
	// the other workloads: a slow spell of the host moves a few seconds,
	// not the result. A second holds serviceRate requests, so its p95
	// has ten beyond it.
	seconds := make([][]float64, (len(reqs)+serviceRate-1)/serviceRate)
	var submit, wait, lag []float64
	byClass := make([][]float64, len(classNames))
	var serverRun time.Duration
	hops, rejected := 0, 0
	for i := range reqs {
		r := &reqs[i]
		err := r.check(refs[string(r.spec)])
		rep.op(fmt.Sprintf("request %d (%s)", i, classNames[r.class]), err)
		lat := ms(r.done.Sub(r.due))
		if err != nil {
			lat = failedLatency
			if r.code == http.StatusTooManyRequests || r.code >= 500 || r.code == 0 {
				rejected++
			}
		}
		seconds[i/serviceRate] = append(seconds[i/serviceRate], lat)
		byClass[r.class] = append(byClass[r.class], lat)
		lag = append(lag, ms(r.sent.Sub(r.due)))
		submit = append(submit, ms(r.accepted.Sub(r.sent)))
		wait = append(wait, ms(r.done.Sub(r.accepted)))
		if err == nil && r.class != classHit {
			primary := r.statuses[0]
			serverRun += primary.Finished.Sub(*primary.Started)
			hops += refs[string(r.spec)].hops
		}
	}

	rep.set("setup_s", median(setups))
	rep.set("run_s", serverRun.Seconds())
	rep.set("ns_per_hop", float64(serverRun.Nanoseconds())/float64(max(hops, 1)))
	rep.set("job_p50_ms", passQuantile(seconds, 0.50))
	rep.set("job_p95_ms", passQuantile(seconds, 0.95))
	rep.set("alloc_mb", mb(alloc))
	rep.set("heap_mb", float64(heap)/1e6)
	rep.set("hit_p50_ms", quantile(byClass[classHit], 0.50))
	rep.set("miss_p50_ms", quantile(byClass[classMiss], 0.50))
	rep.set("service.dedup_p50_ms", quantile(byClass[classDup], 0.50))
	rep.set("service.submit_p50_ms", quantile(submit, 0.50))
	rep.set("service.wait_p50_ms", quantile(wait, 0.50))
	rep.set("service.gen_lag_ms", quantile(lag, 0.95))
	rep.set("service.cache_hit_ratio", hitRatio)
	rep.set("service.rejected", float64(rejected))
	rep.set("sim.hops", float64(hops))
	if !cfg.traced {
		return nil
	}

	tr := &tracer{}
	for _, c := range executed {
		cr, err := tr.runCell(c)
		if err == nil {
			err = sameRun(c.name+" traced", cr, refs[string(c.spec)])
		}
		rep.op(c.name+" traced", err)
	}
	tr.set(rep, 1)
	rep.set("trace.overhead", tr.run.Seconds()/replay.Seconds())
	return nil
}

// check verifies one request's outcome against the in-process reference.
func (r *request) check(ref cellRun) error {
	if r.err != nil {
		return r.err
	}
	want := 1
	if r.class == classDup {
		want = 2
	}
	if len(r.statuses) != want {
		return fmt.Errorf("%d jobs in the response, want %d", len(r.statuses), want)
	}
	for _, st := range r.statuses {
		if st.State != service.StateDone || st.Stats == nil {
			return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if err := sameStats("job "+st.ID, st.Stats.RouteStats(), ref.stats); err != nil {
			return err
		}
	}
	first := r.statuses[0]
	switch {
	case r.class == classHit && !first.CacheHit:
		return errors.New("resubmitted spec was not a cache hit")
	case r.class != classHit && (first.CacheHit || first.Deduped):
		return errors.New("fresh spec was not executed")
	case r.class != classHit && (first.Started == nil || first.Finished == nil):
		return errors.New("executed job has no start or finish time")
	case r.class == classDup && !r.statuses[1].Deduped:
		return errors.New("second copy of a duplicate pair was not deduped")
	}
	return nil
}

// liveServer is a running service on a loopback listener, with the
// client the open loop submits through.
type liveServer struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	warm   service.JobStatus
}

// startServer starts the service and runs the warm-up job, which also
// puts the hit spec in the cache.
func startServer(hit []byte) (*liveServer, error) {
	srv := service.New(service.Config{Workers: serviceWorkers})
	ls := &liveServer{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serviceConns,
			MaxIdleConnsPerHost: serviceConns,
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_, sts, err := ls.submit(ctx, hit)
	if err == nil {
		var ok bool
		if ls.warm, ok = srv.WaitJob(ctx, sts[0].ID); !ok || ls.warm.State != service.StateDone {
			err = fmt.Errorf("warm-up job %s ended %s: %s", sts[0].ID, ls.warm.State, ls.warm.Error)
		}
	}
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("start service: %w", err)
	}
	return ls, nil
}

// close drains the service, then stops the listener and the client.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = ls.srv.Shutdown(ctx) // documented to return nil; expiry cancels the jobs
	ls.ts.Close()
	ls.client.CloseIdleConnections()
}

// submit POSTs one body and returns the response code and job statuses.
func (ls *liveServer) submit(ctx context.Context, body []byte) (int, []service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ls.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if body[0] == '[' {
		var sweep struct {
			Jobs []service.JobStatus `json:"jobs"`
		}
		err = json.Unmarshal(data, &sweep)
		return resp.StatusCode, sweep.Jobs, err
	}
	var st service.JobStatus
	err = json.Unmarshal(data, &st)
	return resp.StatusCode, []service.JobStatus{st}, err
}

// openLoop sends the requests at serviceRate from serviceConns senders,
// whether or not earlier ones have completed. Each request is due at a
// fixed offset from the start; a sender that falls behind sends late and
// the lateness stays in the request's latency. Completion is observed
// through Server.WaitJob, so no poll interval enters it.
func (ls *liveServer) openLoop(reqs []request) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	interval := time.Second / serviceRate
	start := time.Now().Add(interval)
	var next atomic.Int64
	var senders, waiters sync.WaitGroup
	for g := 0; g < serviceConns; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				r.due = start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(r.due))
				r.sent = time.Now()
				r.code, r.statuses, r.err = ls.submit(ctx, r.body)
				r.accepted = time.Now()
				if r.err != nil {
					r.done = r.accepted
					continue
				}
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					for k, st := range r.statuses {
						final, ok := ls.srv.WaitJob(ctx, st.ID)
						if !ok {
							r.err = fmt.Errorf("job %s is unknown to the server", st.ID)
							break
						}
						r.statuses[k] = final
					}
					r.done = time.Now()
				}()
			}
		}()
	}
	senders.Wait()
	waiters.Wait()
}

// cacheHitRatio reads the cache hit ratio from GET /metrics.
func (ls *liveServer) cacheHitRatio() (float64, error) {
	resp, err := ls.client.Get(ls.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, fmt.Errorf("GET /metrics: %w", err)
	}
	return m.Cache.HitRatio, nil
}

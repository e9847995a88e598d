package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/service"
	"repro/internal/slo"
)

type kind int

const (
	kindCold kind = iota
	kindHot
	kindBatch
)

const (
	serveN = 1024
	// hotSetSize is serve-hot's working set, well inside the 256-entry
	// result cache, so every timed job is a hit.
	hotSetSize = 64
	// hotSetSeed seeds the working set. It is the same for every --seed,
	// which only picks the key each request draws: the set-up solves then
	// repeat exactly from run to run, and so does rounds_mean, which on
	// this workload is the mean over the set.
	hotSetSeed = 0x407
	// A serve-batch job has batchDistinct fresh specs, batchCopies of each.
	batchDistinct = 8
	batchCopies   = 4
)

// jobSpec is the spec of job index i: the three families rotate, all at
// n = 1024, all cacheable, with a seed no other index of the run shares.
func jobSpec(seed uint64, i int) service.JobSpec {
	js := service.JobSpec{N: serveN, Margin: 0.9, Slack: 0.4, Seed: opSeed(seed, i), Cache: true}
	switch i % 3 {
	case 0:
		js.Family, js.Degree, js.Algorithm = service.FamilySinkless, 3, service.AlgMTPar
	case 1:
		js.Family, js.Degree, js.Algorithm = service.FamilyHyper, 3, service.AlgMTPar
	default:
		js.Family, js.Degree, js.Algorithm = service.FamilySinkless, 2, service.AlgSeq
	}
	return js
}

// batchSpec is the j-th distinct member spec of batch job i.
func batchSpec(seed uint64, i, j int) service.JobSpec {
	return jobSpec(seed, i*batchDistinct+j)
}

// lldSLO is llld's default SLO configuration.
func lldSLO() *slo.Engine {
	return slo.NewEngine(slo.Config{
		Objectives: []slo.Objective{
			{Name: service.SLORunLatency, Kind: slo.Latency, Target: 0.99, Threshold: 2},
			{Name: service.SLOQueueWait, Kind: slo.Latency, Target: 0.99, Threshold: 0.5},
			{Name: service.SLOErrorRate, Kind: slo.Ratio, Target: 0.99},
		},
		ShortWindow: 10 * time.Second,
		LongWindow:  time.Minute,
		BurnFactor:  2,
	})
}

// server is a serving workload: a service with llld's default
// configuration behind its in-process HTTP handler.
type server struct {
	kind kind
	seed uint64
	svc  *service.Service
	h    http.Handler
	// hot is serve-hot's working set: request bodies and the assignment
	// hashes their set-up solves produced.
	hot []hotEntry

	// Traced runs only. runs holds, per job seed, when the timing runner
	// entered and left service.RunSpec; served keeps the results replay
	// compares against.
	mu     sync.Mutex
	runs   map[uint64][2]time.Time
	served map[int]*service.Summary
}

type hotEntry struct {
	body []byte
	hash uint64
}

func serving(k kind) func(uint64, bool) (target, error) {
	return func(seed uint64, traced bool) (target, error) { return newServer(k, seed, traced) }
}

// newServer starts the service and runs the untimed warm-up: one job for
// serve-cold and serve-batch, the whole working set for serve-hot.
func newServer(k kind, seed uint64, traced bool) (*server, error) {
	s := &server{kind: k, seed: seed}
	reg := obs.NewRegistry()
	cfg := service.Config{QueueCap: 64, CacheSize: 256, Retention: 256, Metrics: reg, SLO: lldSLO()}
	if traced {
		s.runs = map[uint64][2]time.Time{}
		s.served = map[int]*service.Summary{}
		// The options service.New hands its default runner.
		opts := service.RunOptions{Metrics: reg, MaxWorkers: runtime.GOMAXPROCS(0)}
		cfg.Runner = func(ctx context.Context, js service.JobSpec, att service.Attempt, emit func(service.Event)) (*service.Summary, error) {
			t0 := time.Now()
			sum, err := service.RunSpec(ctx, js, att, emit, opts)
			t1 := time.Now()
			s.mu.Lock()
			s.runs[js.Seed] = [2]time.Time{t0, t1}
			s.mu.Unlock()
			return sum, err
		}
	}
	s.svc = service.New(cfg)
	s.h = service.NewHandler(s.svc, reg)
	c := s.newConn()
	if k != kindHot {
		if o := s.op(c, setupBase, nil); o.cause != causeOK {
			s.close()
			return nil, fmt.Errorf("warm-up job: %v", o.cause)
		}
		return s, nil
	}
	s.hot = make([]hotEntry, hotSetSize)
	for j := range s.hot {
		js := jobSpec(hotSetSeed, setupBase+j)
		body := encode(js)
		x := s.job(c, "/v1/jobs", body, js.Seed, nil, 0, 0)
		switch {
		case x.cause != causeOK:
		case !x.sum.Satisfied:
			x.cause = causeUnsatisfied
		case x.sum.CacheHit:
			x.cause = causeCacheState
		}
		if x.cause != causeOK {
			s.close()
			return nil, fmt.Errorf("working-set job %d: %v", j, x.cause)
		}
		s.hot[j] = hotEntry{body: body, hash: x.sum.AssignmentHash}
	}
	return s, nil
}

func (s *server) close() { s.svc.Shutdown(context.Background()) }

func (s *server) client() func(int, *tracer) outcome {
	c := s.newConn()
	return func(i int, tr *tracer) outcome { return s.op(c, i, tr) }
}

// encode returns the request body of a spec or batch request; their plain
// fields always encode.
func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// op runs job i and checks its result.
func (s *server) op(c *conn, i int, tr *tracer) outcome {
	start := time.Now()
	root := tr.id()
	var o outcome
	var x exchange
	switch s.kind {
	case kindCold:
		js := jobSpec(s.seed, i)
		x = s.job(c, "/v1/jobs", encode(js), js.Seed, tr, i, root)
		o.members = 1
		if x.cause == causeOK {
			switch {
			case !x.sum.Satisfied:
				x.cause = causeUnsatisfied
			case x.sum.CacheHit:
				x.cause = causeCacheState
			}
		}
	case kindHot:
		e := &s.hot[prng.Mix64(opSeed(s.seed, i))%hotSetSize]
		x = s.job(c, "/v1/jobs", e.body, 0, tr, i, root)
		o.members = 1
		if x.cause == causeOK {
			switch {
			case !x.sum.Satisfied:
				x.cause = causeUnsatisfied
			case !x.sum.CacheHit:
				x.cause = causeCacheState
			case x.sum.AssignmentHash != e.hash:
				x.cause = causeHashMismatch
			}
		}
	case kindBatch:
		req := service.BatchRequest{Cache: true, Specs: make([]service.JobSpec, 0, batchDistinct*batchCopies)}
		for range batchCopies {
			for j := range batchDistinct {
				req.Specs = append(req.Specs, batchSpec(s.seed, i, j))
			}
		}
		x = s.job(c, "/v1/jobs/batch", encode(req), 0, tr, i, root)
		o.members = len(req.Specs)
		if x.cause == causeOK {
			x.cause = checkBatch(x.sum)
		}
	}
	if x.cause == causeOK {
		o.rounds = x.sum.Rounds
		if len(x.sum.Instances) > 0 {
			for _, is := range x.sum.Instances {
				if is.CacheHit {
					o.hits++
				}
			}
		} else if x.sum.CacheHit {
			o.hits = 1
		}
		if s.served != nil && i >= tracedBase && i < tracedBase+traceMinOps {
			s.mu.Lock()
			s.served[i] = x.sum
			s.mu.Unlock()
		}
	}
	end := time.Now()
	o.cause, o.calls, o.lat = x.cause, x.calls, end.Sub(start)
	tr.record(i, root, 0, "op", start, end, nil)
	return o
}

// checkBatch checks a batch result: every member satisfied, and exactly
// the copies beyond the first of each distinct spec deduplicated.
func checkBatch(sum *service.Summary) cause {
	if len(sum.Instances) != batchDistinct*batchCopies {
		return causeBatchShape
	}
	hits := 0
	for _, is := range sum.Instances {
		if is.Err != "" || !is.Satisfied {
			return causeUnsatisfied
		}
		if is.CacheHit {
			hits++
		}
	}
	if hits != batchDistinct*(batchCopies-1) {
		return causeBatchShape
	}
	return causeOK
}

// conn is one client's reusable request and response state.
type conn struct {
	h         http.Handler
	w         recorder
	body      bytes.Reader
	post, get *http.Request
}

func (s *server) newConn() *conn {
	c := &conn{h: s.h, w: recorder{hdr: http.Header{}}}
	c.post = httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	c.post.Body = io.NopCloser(&c.body)
	c.get = httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	return c
}

// serve runs one request through the handler into the reused recorder.
func (c *conn) serve(r *http.Request) (start, end time.Time) {
	clear(c.w.hdr)
	c.w.code = 0
	c.w.buf.Reset()
	start = time.Now()
	c.h.ServeHTTP(&c.w, r)
	return start, time.Now()
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(b)
}

// Flush lets the event stream flush each line, as it does to a socket.
func (r *recorder) Flush() {}

// exchange is the outcome of one job's trip through the API.
type exchange struct {
	sum   *service.Summary
	cause cause
	calls time.Duration // inside ServeHTTP
}

// job submits body to path and follows the job: POST, then GET
// …/events to the end line, then GET the job for its result. seed names
// the job to the timing runner (0 for batch jobs, which bypass it).
func (s *server) job(c *conn, path string, body []byte, seed uint64, tr *tracer, op int, root int64) exchange {
	var x exchange
	c.post.URL.Path = path
	c.body.Reset(body)
	c.post.ContentLength = int64(len(body))
	p0, p1 := c.serve(c.post)
	x.calls += p1.Sub(p0)
	tr.record(op, 0, root, "service.post", p0, p1, nil)
	switch c.w.code {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		x.cause = causeRejected429
		return x
	case http.StatusServiceUnavailable:
		x.cause = causeRejected503
		return x
	default:
		x.cause = causeBadResponse
		return x
	}
	var posted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(c.w.buf.Bytes(), &posted); err != nil || posted.ID == "" {
		x.cause = causeBadResponse
		return x
	}

	c.get.URL.Path = "/v1/jobs/" + posted.ID + "/events"
	eid := tr.id()
	e0, e1 := c.serve(c.get)
	x.calls += e1.Sub(e0)
	tr.record(op, eid, root, "service.events", e0, e1, nil)
	s.takeRun(tr, op, eid, seed, p1)
	if x.cause = status(c.w.code); x.cause != causeOK {
		return x
	}
	var end struct {
		Kind  string        `json:"kind"`
		State service.State `json:"state"`
	}
	if err := json.Unmarshal(lastLine(c.w.buf.Bytes()), &end); err != nil || end.Kind != "end" {
		x.cause = causeBadResponse
		return x
	}
	if end.State != service.StateDone {
		x.cause = causeJobFailed
		return x
	}

	c.get.URL.Path = "/v1/jobs/" + posted.ID
	g0, g1 := c.serve(c.get)
	x.calls += g1.Sub(g0)
	tr.record(op, 0, root, "service.get", g0, g1, nil)
	if x.cause = status(c.w.code); x.cause != causeOK {
		return x
	}
	var view struct {
		State  service.State    `json:"state"`
		Result *service.Summary `json:"result"`
	}
	if err := json.Unmarshal(c.w.buf.Bytes(), &view); err != nil || view.State != service.StateDone || view.Result == nil {
		x.cause = causeBadResponse
		return x
	}
	x.sum = view.Result
	return x
}

// status classifies the status of a GET on a submitted job.
func status(code int) cause {
	switch code {
	case http.StatusOK:
		return causeOK
	case http.StatusNotFound:
		return causeEvicted404
	}
	return causeBadResponse
}

// lastLine returns the last non-empty line of an NDJSON body.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// takeRun removes the timing runner's record of the job with this seed and,
// traced, records the dispatch (POST return to runner entry: queue wait,
// scheduler hop, cache-key derivation) and run spans under the events span.
func (s *server) takeRun(tr *tracer, op int, parent int64, seed uint64, posted time.Time) {
	if s.runs == nil || seed == 0 {
		return
	}
	s.mu.Lock()
	r, ok := s.runs[seed]
	delete(s.runs, seed)
	s.mu.Unlock()
	if !ok {
		return
	}
	entered := r[0]
	if entered.Before(posted) {
		entered = posted // the scheduler picked the job up before POST returned
	}
	tr.record(op, 0, parent, "service.dispatch", posted, entered, nil)
	tr.record(op, 0, parent, "service.run", r[0], r[1], nil)
}

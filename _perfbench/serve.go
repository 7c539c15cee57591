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
	"os"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/timeu"
	"repro/internal/workload"
)

const (
	// fillRequests is enough distinct results (about 1.5 KB each on
	// disk) to roll the store past its first 4 MiB segment.
	fillRequests = 3072
	// poolSets is how many §V sets the requests draw from.
	poolSets = 240
)

// serveBench fills a result store through /v1/simulate, restarts the
// server over the reopened store, and replays the same requests, each
// one a store hit, over one keep-alive loopback connection.
type serveBench struct {
	scratch string
	traced  bool
	reqs    []wire.SimulateRequest
	bodies  [][]byte // each request's body as the client sends it
	keys    []string // each request's store key
	fps     []string // each request's set fingerprint
	fill    [][]byte // each request's fill response body, as received

	openTimes []time.Duration // store.Open of each restart
	missSpans []time.Duration // handler span of each fill request (traced runs)

	// State of the last set-up.
	dir string
	st  *store.Store
	srv *serve.Server
	hs  *httpServer
	ct  *captureTransport
	cl  *client.Client
}

// newServe draws the requests: each pairs a set generated per §V (from
// the five intervals of [0.1, 0.6)) with an approach, a scenario and a
// fault seed, all from the workload seed; no two share a store key.
func newServe(o options) (*serveBench, error) {
	b := &serveBench{scratch: o.scratch, traced: o.trace}
	ivs := workload.Intervals(0.1, 1.0, 0.1)[:5]
	var pool []*repro.Set
	for k, iv := range ivs {
		gen := workload.NewGenerator(workload.DefaultConfig(), mix(o.seed, uint64(100+k)))
		pool = append(pool, gen.GenerateInterval(iv, poolSets/len(ivs), 5000).Sets...)
	}
	if len(pool) == 0 {
		return nil, errors.New("no task sets generated")
	}
	rng := stats.NewRand(mix(o.seed, 99))
	approachNames := []string{"st", "dp", "selective"}
	scenarioNames := []string{"none", "permanent", "permanent+transient"}
	seen := map[string]bool{}
	for len(b.reqs) < fillRequests {
		s := pool[rng.Intn(len(pool))]
		req := wire.SimulateRequest{
			Set:      specOf(s),
			Approach: approachNames[rng.Intn(len(approachNames))],
			Scenario: scenarioNames[rng.Intn(len(scenarioNames))],
			Seed:     rng.Uint64(),
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		_, set, a, sc, err := decodeRequest(body)
		if err != nil {
			return nil, err
		}
		if fp := analysis.Fingerprint(set); fp != analysis.Fingerprint(s) {
			return nil, fmt.Errorf("set spec does not round-trip: %s != %s", fp, analysis.Fingerprint(s))
		}
		key := runKey(req, set, a, sc)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.reqs = append(b.reqs, req)
		b.bodies = append(b.bodies, body)
		b.keys = append(b.keys, key)
		b.fps = append(b.fps, analysis.Fingerprint(set))
	}
	b.fill = make([][]byte, len(b.reqs))
	return b, nil
}

// specOf renders a generated set as the wire's task-set spec.
func specOf(s *repro.Set) repro.SetSpec {
	var spec repro.SetSpec
	for _, t := range s.Tasks {
		spec.Tasks = append(spec.Tasks, repro.TaskSpec{
			PeriodMS: t.Period.Millis(), DeadlineMS: t.Deadline.Millis(), WCETMS: t.WCET.Millis(), M: t.M, K: t.K,
		})
	}
	return spec
}

// decodeRequest decodes a /v1/simulate body as the handler does: strict
// JSON, the set spec materialized, approach and scenario parsed.
func decodeRequest(body []byte) (wire.SimulateRequest, *repro.Set, repro.Approach, repro.Scenario, error) {
	var req wire.SimulateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, 0, 0, err
	}
	set, err := req.Set.Set()
	if err != nil {
		return req, nil, 0, 0, err
	}
	a, err := repro.ParseApproach(req.Approach)
	if err != nil {
		return req, nil, 0, 0, err
	}
	sc, err := repro.ParseScenario(req.Scenario)
	return req, set, a, sc, err
}

// runKey derives a request's store key as the server does: the set
// fingerprint plus every run-config field.
func runKey(req wire.SimulateRequest, set *repro.Set, a repro.Approach, sc repro.Scenario) string {
	return store.RunKey(analysis.Fingerprint(set), a.String(), sc.String(), req.Seed,
		int64(timeu.FromMillis(req.HorizonMS)), req.TransientRate)
}

func (b *serveBench) cycleLen() int { return len(b.reqs) }

func (b *serveBench) traceOps() int { return len(b.reqs) }

// setUp opens a store in a fresh directory, fills it through
// /v1/simulate (every request a miss that runs the engine), closes it,
// and reopens it under a fresh server: the warm restart.
func (b *serveBench) setUp() error {
	if err := b.teardown(); err != nil {
		return err
	}
	var err error
	if b.dir, err = os.MkdirTemp(b.scratch, "store-"); err != nil {
		return err
	}
	if err := b.fillStore(); err != nil {
		return err
	}
	t0 := time.Now()
	if b.st, err = store.Open(b.dir, store.Options{}); err != nil {
		return err
	}
	b.openTimes = append(b.openTimes, time.Since(t0))
	if st := b.st.Stats(); st.Segments < 2 || st.Keys != len(b.reqs) {
		return fmt.Errorf("reopened store has %d segments and %d keys, want at least 2 and %d", st.Segments, st.Keys, len(b.reqs))
	}
	b.srv = serve.NewServer(serve.Config{Store: b.st})
	if b.hs, err = startHTTP(b.srv.Handler()); err != nil {
		return err
	}
	b.cl, b.ct = newClient(b.hs.addr())
	return nil
}

// fillStore runs every request once against a server over a new store
// in b.dir, checks each reply, and closes server and store.
func (b *serveBench) fillStore() (err error) {
	st, err := store.Open(b.dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	h := serve.NewServer(serve.Config{Store: st}).Handler()
	var spans chan handlerSpan
	if b.traced {
		h, spans = timed(h)
	}
	hs, err := startHTTP(h)
	if err != nil {
		return err
	}
	cl, ct := newClient(hs.addr())
	defer func() {
		ct.base.CloseIdleConnections()
		err = errors.Join(err, hs.stop())
	}()
	for k, req := range b.reqs {
		doc, info, err := cl.Simulate(context.Background(), req)
		if err != nil {
			return fmt.Errorf("fill request %d: %w", k, err)
		}
		if spans != nil {
			sp := <-spans
			b.missSpans = append(b.missSpans, sp.end.Sub(sp.start))
		}
		if info.StoreHit || doc.Fingerprint != b.fps[k] {
			return fmt.Errorf("%w: fill request %d: store hit %v, fingerprint %q", errCheck, k, info.StoreHit, doc.Fingerprint)
		}
		if bad := doc.Counters.CheckInvariants(timeu.Time(doc.HorizonUS)); len(bad) > 0 {
			return fmt.Errorf("%w: fill request %d: %s", errCheck, k, bad[0])
		}
		body := ct.last()
		if b.fill[k] == nil {
			b.fill[k] = bytes.Clone(body)
		} else if !bytes.Equal(b.fill[k], body) {
			return fmt.Errorf("%w: fill request %d answered differently in two set-ups", errCheck, k)
		}
	}
	return nil
}

// op replays request i mod N; the reply must come from the store and
// match the fill reply byte for byte.
func (b *serveBench) op(i int) (time.Duration, error) {
	k := i % len(b.reqs)
	t0 := time.Now()
	_, info, err := b.cl.Simulate(context.Background(), b.reqs[k])
	took := time.Since(t0)
	if err != nil {
		return took, err
	}
	return took, b.checkReplay(k, info, b.ct)
}

func (b *serveBench) checkReplay(k int, info client.Info, ct *captureTransport) error {
	if !info.StoreHit {
		return fmt.Errorf("%w: request %d was not served from the store", errCheck, k)
	}
	if !bytes.Equal(ct.last(), b.fill[k]) {
		return fmt.Errorf("%w: request %d: replayed body differs from its fill body", errCheck, k)
	}
	return nil
}

func (b *serveBench) close() error { return b.teardown() }

// teardown stops the last set-up's server and store and removes its
// directory.
func (b *serveBench) teardown() error {
	var errs []error
	if b.ct != nil {
		b.ct.base.CloseIdleConnections()
	}
	if b.hs != nil {
		errs = append(errs, b.hs.stop())
	}
	if b.st != nil {
		errs = append(errs, b.st.Close())
	}
	if b.dir != "" {
		errs = append(errs, os.RemoveAll(b.dir))
	}
	b.ct, b.cl, b.hs, b.st, b.srv, b.dir = nil, nil, nil, nil, nil, ""
	return errors.Join(errs...)
}

// httpServer serves one handler on a loopback listener.
type httpServer struct {
	hs   *http.Server
	ln   net.Listener
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, ln: ln, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *httpServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *httpServer) stop() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newClient builds a serve client limited to one connection, whose
// transport keeps each raw reply body for byte comparison.
func newClient(addr string) (*client.Client, *captureTransport) {
	ct := &captureTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return client.New(client.Config{Addr: addr, HTTPClient: &http.Client{Transport: ct}}), ct
}

// captureTransport reads each reply body in full, keeps it, and hands
// the client the same bytes to decode. One request at a time.
type captureTransport struct {
	base *http.Transport
	body bytes.Buffer
}

func (c *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(c.body.Bytes()))
	return resp, nil
}

// last is the body of the latest reply; valid until the next request.
func (c *captureTransport) last() []byte { return c.body.Bytes() }

// handlerSpan is one request's time inside Server.Handler().ServeHTTP.
type handlerSpan struct{ start, end time.Time }

// timed wraps h so each request's handler span goes to the returned
// channel, which holds one span: the client takes it after each reply.
func timed(h http.Handler) (http.Handler, chan handlerSpan) {
	spans := make(chan handlerSpan, 1)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		spans <- handlerSpan{t0, time.Now()}
	}), spans
}

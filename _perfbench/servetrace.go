package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/store"
)

// trace re-drives replays [0, n) through the same server behind a timed
// handler on a second listener, then times the calls the hit path makes
// — decode, key derivation, store read — on the same inputs, and the
// store writes of the fill replies into a scratch store. Every replay
// must still be a store hit with the fill reply's bytes.
func (b *serveBench) trace(n int, tr *tracer) (map[string]metric, error) {
	h, spans := timed(b.srv.Handler())
	hs, err := startHTTP(h)
	if err != nil {
		return nil, err
	}
	cl, ct := newClient(hs.addr())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		k := i % len(b.reqs)
		t0 := time.Now()
		_, info, err := cl.Simulate(context.Background(), b.reqs[k])
		t1 := time.Now()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("replay %d: %w", i, err), hs.stop())
		}
		sp := <-spans
		op := tr.add(opSpan, i, -1, t0, t1)
		tr.add("serve.handler", i, op, sp.start, sp.end)
		if err := b.checkReplay(k, info, ct); err != nil {
			return nil, errors.Join(err, hs.stop())
		}
	}
	runtime.ReadMemStats(&after)
	ct.base.CloseIdleConnections()
	if err := hs.stop(); err != nil {
		return nil, err
	}

	hits := 0
	for i := 0; i < n; i++ {
		k := i % len(b.reqs)
		t0 := time.Now()
		req, set, a, sc, err := decodeRequest(b.bodies[k])
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		key := runKey(req, set, a, sc)
		t2 := time.Now()
		val, ok := b.st.Get(key)
		t3 := time.Now()
		tr.add("wire.decode", i, -1, t0, t1)
		tr.add("serve.key", i, -1, t1, t2)
		tr.add("store.get", i, -1, t2, t3)
		fill := b.fill[k]
		if ok && key == b.keys[k] && bytes.Equal(append(val, '\n'), fill) {
			hits++
		}
	}
	if hits != n {
		return nil, fmt.Errorf("%w: %d of %d store reads returned the fill reply", errCheck, hits, n)
	}
	if err := b.tracePuts(tr); err != nil {
		return nil, err
	}

	handler := tr.durations("serve.handler")
	transport := tr.opDurations()
	for i := range transport {
		transport[i] -= handler[i]
	}
	us := time.Microsecond
	return map[string]metric{
		"serve.hit_handler_us":   durMetric(handler, us),
		"serve.hit_transport_us": durMetric(transport, us),
		"serve.alloc_kb":         {float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024, "", n},
		"wire.decode_us":         durMetric(tr.durations("wire.decode"), us),
		"serve.key_us":           durMetric(tr.durations("serve.key"), us),
		"store.get_us":           durMetric(tr.durations("store.get"), us),
		"store.hit_ratio":        {ratio(hits, n), "", n},
		"serve.miss_handler_ms":  durMetric(b.missSpans, time.Millisecond),
		"store.put_us":           durMetric(tr.durations("store.put"), us),
		"store.open_ms":          durMetric(b.openTimes, time.Millisecond),
	}, nil
}

// tracePuts times store.Put of every fill reply into a scratch store.
func (b *serveBench) tracePuts(tr *tracer) (err error) {
	dir, err := os.MkdirTemp(b.scratch, "put-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	for k, body := range b.fill {
		t0 := time.Now()
		err := st.Put(b.keys[k], body[:len(body)-1])
		tr.add("store.put", -1, -1, t0, time.Now())
		if err != nil {
			return err
		}
	}
	return nil
}

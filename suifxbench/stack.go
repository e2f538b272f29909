package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"suifx/internal/cluster"
	"suifx/internal/driver"
	"suifx/internal/server"
)

// stack is suifxd running in this process behind loopback listeners: one
// server, or a coordinator over two workers. Every worker owns its cache,
// as separate suifxd processes would.
//
// The caches hold cacheCap analyses, so the live heap levels off early in
// a run: peak RSS, and the garbage collector's pace, then do not depend on
// how many requests fit in the run.
type stack struct {
	url     string   // where the client sends requests
	workers []string // worker base URLs (the server itself when single)
	caches  []*driver.Cache
	client  *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   chan error
}

const cacheCap = 8

// newClient bounds the client to nproc connections.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// serve runs ListenAndServe on a goroutine and returns the bound URL.
func (st *stack) serve(ctx context.Context, listen func(context.Context, func(string)) error) (string, error) {
	ready := make(chan string, 1)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		if err := listen(ctx, func(addr string) { ready <- addr }); err != nil {
			st.errs <- err
		}
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, nil
	case err := <-st.errs:
		return "", err
	}
}

// startStack starts one server (workers == 0) or a coordinator over that
// many workers.
func startStack(workers int) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{client: newClient(), cancel: cancel, errs: make(chan error, workers+1)}
	n := workers
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		c := driver.NewCacheCap(cacheCap)
		srv := server.New(server.Config{Addr: "127.0.0.1:0", Cache: c})
		u, err := st.serve(ctx, srv.ListenAndServe)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("start worker: %w", err)
		}
		st.workers = append(st.workers, u)
		st.caches = append(st.caches, c)
	}
	st.url = st.workers[0]
	if workers == 0 {
		return st, nil
	}
	co, err := cluster.New(cluster.Config{
		Addr:             "127.0.0.1:0",
		Workers:          st.workers,
		MaxConnsPerShard: runtime.NumCPU(),
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	u, err := st.serve(ctx, co.ListenAndServe)
	if err != nil {
		co.Close()
		st.close()
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	st.url = u
	return st, nil
}

// close shuts every listener down, waits for the serve goroutines and
// empties the caches. It may be called again.
func (st *stack) close() {
	st.cancel()
	st.wg.Wait()
	st.client.CloseIdleConnections()
	for _, c := range st.caches {
		c.Reset()
	}
}

// call is one client request: its wall time, HTTP status and body.
type call struct {
	dur    time.Duration
	status int
	body   []byte
}

// do sends one request; a transport error is returned as such, a non-2xx
// status is left for the caller to count.
func (st *stack) do(method, base, path string, req any) (call, error) {
	var rd io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return call{}, err
		}
		rd = bytes.NewReader(b)
	}
	hr, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return call{}, err
	}
	start := time.Now()
	resp, err := st.client.Do(hr)
	if err != nil {
		return call{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c := call{dur: time.Since(start), status: resp.StatusCode, body: body}
	if err != nil {
		return c, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return c, nil
}

func (st *stack) post(path string, req any) (call, error) {
	return st.do(http.MethodPost, st.url, path, req)
}

// postJSON sends a request that must succeed and decodes its reply.
func (st *stack) postJSON(path string, req, out any) error {
	c, err := st.post(path, req)
	if err != nil {
		return err
	}
	if c.status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, c.status, bytes.TrimSpace(c.body))
	}
	return json.Unmarshal(c.body, out)
}

// workerStats sums shed and panic counters over the workers.
func (st *stack) workerStats() (shed, panics int64, err error) {
	for _, u := range st.workers {
		c, err := st.do(http.MethodGet, u, "/v1/stats", nil)
		if err != nil {
			return 0, 0, err
		}
		var s server.StatsResponse
		if err := json.Unmarshal(c.body, &s); err != nil {
			return 0, 0, fmt.Errorf("decode worker stats: %w", err)
		}
		shed += s.Shed
		panics += s.Panics
	}
	return shed, panics, nil
}

// clusterStats reads the coordinator's counters.
func (st *stack) clusterStats() (cluster.Stats, error) {
	var s cluster.StatsResponse
	c, err := st.do(http.MethodGet, st.url, "/v1/stats", nil)
	if err != nil {
		return s.Cluster, err
	}
	if err := json.Unmarshal(c.body, &s); err != nil {
		return s.Cluster, fmt.Errorf("decode coordinator stats: %w", err)
	}
	return s.Cluster, nil
}

// countServer runs fn and records the workers' shed and panic deltas.
func (st *stack) countServer(m metricSet, fn func() error) error {
	shed0, panics0, err := st.workerStats()
	if err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	shed1, panics1, err := st.workerStats()
	if err != nil {
		return err
	}
	m["server.shed"] = float64(shed1 - shed0)
	m["server.panics"] = float64(panics1 - panics0)
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/parallel"
	"suifx/internal/server"
)

// batchCluster sends one POST /v1/batch at a time (parallelism 2) to a
// coordinator over two workers and reads the NDJSON stream to the end.
type batchCluster struct {
	seed    int64
	st      *stack
	oracle  *stack // single node answering the check's /v1/analyze calls
	batches []batchManifest
	sent    []batchSent
}

// batchSent keeps what the checks read of one stream: each item's
// result_sha256, in manifest order.
type batchSent struct {
	m      batchManifest
	ms     float64
	hashes []string
}

func setupBatchCluster(seed int64, sz sizes) (workload, error) {
	batches := genBatches(seed, sz.batchMax, sz.batchItems, sz.batchLines)
	st, err := startStack(2)
	if err != nil {
		return nil, err
	}
	// Warm both workers and the coordinator's pools with a small batch.
	cfg := corpusConfig(sz.batchLines)
	var warm []corpus.BatchItem
	for _, p := range genPrograms(seed, "warm-up", 4, sz.batchLines) {
		warm = append(warm, corpus.BatchItem{Seed: p.Manifest.Seed, Config: &cfg})
	}
	c, err := st.post("/v1/batch", server.BatchRequest{Items: warm, Parallelism: 2})
	if err = statusErr(c, err); err == nil {
		_, _, err = decodeBatch(c.body)
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return &batchCluster{seed: seed, st: st, batches: batches}, nil
}

func (w *batchCluster) close() {
	w.st.close()
	if w.oracle != nil {
		w.oracle.close()
	}
}

// decodeBatch splits the stream into item records and the done trailer.
func decodeBatch(body []byte) ([]server.BatchItemResult, server.BatchSummary, error) {
	var recs []server.BatchItemResult
	var sum server.BatchSummary
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, sum, err
			}
			continue
		}
		var r server.BatchItemResult
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, sum, err
		}
		recs = append(recs, r)
	}
	if !sum.Done {
		return nil, sum, fmt.Errorf("stream ended without its done line")
	}
	return recs, sum, sc.Err()
}

// drive sends whole batches: another starts only if it should end before
// the deadline at the pace of the batches so far.
func (w *batchCluster) drive(deadline time.Time, rec *recorder, m metricSet) error {
	c0, err := w.st.clusterStats()
	if err != nil {
		return err
	}
	err = w.st.countServer(m, func() error {
		start := time.Now()
		for i, b := range w.batches {
			if !roomForAnother(start, i, deadline) {
				break
			}
			c, err := w.st.post("/v1/batch", server.BatchRequest{Items: b.items, Parallelism: 2})
			var recs []server.BatchItemResult
			var sum server.BatchSummary
			if err == nil && c.status == 200 {
				if recs, sum, err = decodeBatch(c.body); err == nil && (sum.Failed > 0 || len(recs) != len(b.items)) {
					err = fmt.Errorf("%d of %d items failed, %d records", sum.Failed, sum.Total, len(recs))
				}
			}
			if rec.note("batch", c, err) {
				s := batchSent{m: b, ms: ms(c.dur)}
				for _, r := range recs {
					s.hashes = append(s.hashes, r.ResultSHA256)
				}
				w.sent = append(w.sent, s)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	c1, err := w.st.clusterStats()
	if err != nil {
		return err
	}
	var lat []float64
	for _, s := range w.sent {
		lat = append(lat, s.ms/1000)
	}
	m["server.batch_s"] = median(lat)
	var total, busiest, retries, hedges int64
	for i, wk := range c1.Workers {
		n := wk.Requests - c0.Workers[i].Requests
		total += n
		if n > busiest {
			busiest = n
		}
		retries += wk.Retries - c0.Workers[i].Retries
		hedges += wk.Hedges - c0.Workers[i].Hedges
	}
	if total > 0 {
		m["cluster.max_worker_share"] = float64(busiest) / float64(total)
	}
	m["cluster.retries"] = float64(retries + c1.BatchRetries - c0.BatchRetries)
	m["cluster.hedges"] = float64(hedges)
	m["cluster.batch_failures"] = float64(c1.BatchFailures - c0.BatchFailures)
	return nil
}

// replay runs the sent batches' items again through one driver cache at
// the request's parallelism, each item as the worker runs it: cached
// analysis, then parallelization.
func (w *batchCluster) replay(more func(int) bool, tr *tracer, m metricSet) (int, error) {
	cache := driver.NewCacheCap(cacheCap)
	var mu sync.Mutex
	var missMs, parMs []float64
	n := 0
	for i, s := range w.sent {
		if i > 0 && !more(i) {
			break
		}
		n++
		progs := s.m.programs()
		first := map[string]bool{}
		isFirst := make([]bool, len(progs))
		for k, p := range progs {
			isFirst[k] = !first[p.Name]
			first[p.Name] = true
		}
		root := tr.root("batch")
		err := forEachParallel(len(progs), func(k int) error {
			p := progs[k]
			var res *driver.Result
			var err error
			d := tr.call(root, "driver.Cache.AnalyzeCtx", func() {
				res, err = cache.AnalyzeCtx(context.Background(), p.Name, p.Source, driver.Options{})
			}).ms()
			if err != nil {
				return err
			}
			pz := tr.call(root, "parallel.ParallelizeWith", func() {
				parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true})
			}).ms()
			mu.Lock()
			defer mu.Unlock()
			parMs = append(parMs, pz)
			if isFirst[k] {
				missMs = append(missMs, d)
			}
			return nil
		})
		tr.close(root)
		if err != nil {
			return 0, err
		}
	}
	cs := cache.Stats()
	m["driver.analyze_ms"] = median(missMs)
	m["parallel.parallelize_ms"] = median(parMs)
	m["driver.cache_hits"] = float64(cs.Hits)
	m["driver.cache_misses"] = float64(cs.Misses)
	if n := cs.Hits + cs.Misses; n > 0 {
		m["driver.hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	return n, nil
}

// check requires repeated items to hash alike and a sample of the items'
// result_sha256 to equal the hash of a single-node /v1/analyze of the same
// program.
func (w *batchCluster) check() error {
	if len(w.sent) == 0 {
		return fmt.Errorf("batch-cluster: no batch succeeded")
	}
	if w.oracle == nil {
		st, err := startStack(0)
		if err != nil {
			return err
		}
		w.oracle = st
	}
	type item struct {
		name, source, want string
	}
	var items []item
	seen := map[string]string{}
	for _, s := range w.sent {
		for k, p := range s.m.programs() {
			want := s.hashes[k]
			if prev, ok := seen[p.Name]; ok {
				if prev != want {
					return fmt.Errorf("%s: repeated item hashed %s, then %s", p.Name, prev, want)
				}
				continue
			}
			seen[p.Name] = want
			items = append(items, item{p.Name, p.Source, want})
		}
	}
	idx := sample(w.seed, len(items))
	return forEachParallel(len(idx), func(i int) error {
		it := items[idx[i]]
		var resp server.AnalyzeResponse
		if err := w.oracle.postJSON("/v1/analyze", server.AnalyzeRequest{
			SourceRef: server.SourceRef{Name: it.name, Source: it.source},
		}, &resp); err != nil {
			return err
		}
		resp.ElapsedMs = 0
		canon, err := json.Marshal(&resp)
		if err != nil {
			return err
		}
		h := sha256.Sum256(canon)
		if got := hex.EncodeToString(h[:]); got != it.want {
			return fmt.Errorf("%s: batch result_sha256 %s, single-node analyze %s", it.name, it.want, got)
		}
		return nil
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lossyts/internal/compress"
	"lossyts/internal/datasets"
	"lossyts/internal/serve"
	"lossyts/internal/timeseries"
)

// serveWorkload drives serve.New on a loopback listener with a seeded mix
// of compress, decompress and forecast requests: an open-loop phase at a
// fixed arrival rate, timed from each request's scheduled send, then a
// closed-loop phase that measures capacity. It is the only workload where
// HTTP parsing, the chunked stream plane, core.WorkExec (store →
// singleflight → compute) and cell-store reads carry the latency.
type serveWorkload struct {
	conns  int
	series map[string]*timeseries.Series
	open   []*request // open-loop plan, in schedule order
	closed []*request // closed-loop plan

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	cache   string
	servers int
}

const (
	// serveRate is the open-loop arrival rate in requests per second.
	serveRate = 50
	// serveOpenShare is the share of --seconds the open loop runs; the
	// closed loop takes most of the rest.
	serveOpenShare = 0.8
	// serveClosedRequests is the closed loop's fixed request count.
	serveClosedRequests = 1600
	// serveForecastEpochs keeps a forecast miss near 0.1 s.
	serveForecastEpochs = 2
)

// request is one planned HTTP request and what its response must match.
type request struct {
	id     int
	kind   string // compress, decompress or forecast
	path   string
	body   []byte
	due    time.Duration // open-loop send time from the phase start
	values []float64     // the raw series the response reconstructs
	method compress.Method
	eps    float64
	want   []byte // compress: the library's payload for the same input
	key    int    // requests with one key must get identical responses
}

// response is what the client saw.
type response struct {
	status  int
	cache   string
	body    []byte
	sent    time.Time
	latency time.Duration // from the scheduled send in the open loop
	late    time.Duration // how late the generator released it
	err     error
}

func (w *serveWorkload) setup(e *env) error {
	w.conns = runtime.NumCPU()
	var err error
	if w.series, err = serveSeries(nil); err != nil {
		return err
	}
	nOpen := int(serveRate * e.seconds * serveOpenShare)
	if err := w.plan(e.seed, nOpen); err != nil {
		return err
	}
	return w.startServer(e)
}

// serveSeries generates every dataset at a length that leaves room for
// the largest body, timing each call when tr is set.
func serveSeries(tr *tracer) (map[string]*timeseries.Series, error) {
	out := map[string]*timeseries.Series{}
	for _, name := range paperDatasets {
		spec, _ := datasets.SpecOf(name)
		scale := math.Min(1, 21000/float64(spec.Length))
		var ds *datasets.Dataset
		load := func() (err error) {
			ds, err = datasets.Load(name, scale, 1)
			return err
		}
		var err error
		if tr != nil {
			_, err = tr.timed("datasets.Load", "inputs", 0, load)
		} else {
			err = load()
		}
		if err != nil {
			return nil, err
		}
		out[name] = ds.Target()
	}
	return out, nil
}

// plan draws the request mix from the seed. Body lengths are stratified
// over a log-uniform 1k–20k points (forecasts 1k–4k) so every run sends
// the same spread of sizes; the seed picks the datasets, offsets, codecs,
// bounds and order.
func (w *serveWorkload) plan(seed int64, nOpen int) error {
	rng := rand.New(rand.NewSource(seed))
	codecs := append(compress.LossyMethods(), compress.MethodGorilla)
	lossy := compress.LossyMethods()
	// Each choice is dealt from a shuffled deck, so every stretch of
	// requests holds each dataset, codec, bound and size stratum equally.
	var (
		keys                            int
		compSent, foreSent, payloads    []*request
		dsDeck, codecDeck, lossyDeck    = newDeck(rng, len(paperDatasets)), newDeck(rng, len(codecs)), newDeck(rng, len(lossy))
		boundDeck, sizeDeck, foreSizeDk = newDeck(rng, len(compress.ErrorBounds)), newDeck(rng, 16), newDeck(rng, 16)
	)
	cut := func(lo, hi float64, strata *deck) (*timeseries.Series, int64, []float64) {
		u := (float64(strata.next()) + rng.Float64()) / 16
		n := int(lo * math.Pow(hi/lo, u))
		s := w.series[paperDatasets[dsDeck.next()]]
		off := rng.Intn(s.Len() - n + 1)
		return s, s.Start + int64(off)*s.Interval, s.Values[off : off+n]
	}
	newCompress := func() (*request, error) {
		s, start, vals := cut(1000, 20000, sizeDeck)
		m := codecs[codecDeck.next()]
		eps := compress.ErrorBounds[boundDeck.next()]
		if m == compress.MethodGorilla {
			eps = 0
		}
		comp, err := compress.New(m)
		if err != nil {
			return nil, err
		}
		c, err := comp.Compress(timeseries.New("body", start, s.Interval, vals), eps)
		if err != nil {
			return nil, err
		}
		keys++
		return &request{
			kind: "compress", key: keys, values: vals, method: m, eps: eps, want: c.Payload,
			path: fmt.Sprintf("/v1/compress?method=%s&eps=%v&start=%d&interval=%d", m, eps, start, s.Interval),
			body: valuesText(vals),
		}, nil
	}
	// Decompress bodies come from a pool of payloads compressed up front.
	for i := 0; i < 64; i++ {
		rq, err := newCompress()
		if err != nil {
			return err
		}
		payloads = append(payloads, &request{
			kind: "decompress", key: rq.key, values: rq.values, method: rq.method, eps: rq.eps,
			path: "/v1/decompress?method=" + string(rq.method), body: rq.want,
		})
	}
	newForecast := func() *request {
		s, start, vals := cut(1000, 4000, foreSizeDk)
		m := lossy[lossyDeck.next()]
		eps := compress.ErrorBounds[boundDeck.next()]
		keys++
		return &request{
			kind: "forecast", key: keys, values: vals, method: m, eps: eps,
			path: fmt.Sprintf("/v1/forecast?model=DLinear&method=%s&eps=%v&epochs=%d&start=%d&interval=%d",
				m, eps, serveForecastEpochs, start, s.Interval),
			body: valuesText(vals),
		}
	}
	repeat := func(from []*request) *request {
		rq := *from[rng.Intn(len(from))]
		return &rq
	}

	// The mix comes in blocks of 20 requests: 9 compress (4 with a new
	// body, 5 repeating an earlier one), 9 decompress and 2 forecast
	// requests. Even blocks send one new and one repeated forecast, odd
	// blocks a new forecast twice at the same instant, so the cache sees
	// hits, misses and concurrent duplicates.
	var all []*request
	for b := 0; len(all) < nOpen+serveClosedRequests; b++ {
		var block []*request
		for i := 0; i < 4; i++ {
			rq, err := newCompress()
			if err != nil {
				return err
			}
			compSent = append(compSent, rq)
			block = append(block, rq)
		}
		for i := 0; i < 5; i++ {
			block = append(block, repeat(compSent))
		}
		for i := 0; i < 9; i++ {
			block = append(block, repeat(payloads))
		}
		var twin *request
		if b%2 == 0 {
			rq := newForecast()
			foreSent = append(foreSent, rq)
			block = append(block, rq, repeat(foreSent))
		} else {
			twin = newForecast()
			foreSent = append(foreSent, twin)
			block = append(block, twin)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, rq := range block {
			all = append(all, rq)
			if rq == twin {
				t := *twin
				all = append(all, &t)
			}
		}
	}
	// A repeat drawn before its original is scheduled would be a miss;
	// that is rare and harmless, so the plan keeps draw order.
	gap := 0.0
	for i, rq := range all {
		rq.id = i
		if i > 0 && !(rq.key == all[i-1].key && rq.kind == "forecast") {
			gap += rng.ExpFloat64() / serveRate
		}
		rq.due = time.Duration(gap * float64(time.Second))
	}
	w.open, w.closed = all[:nOpen], all[nOpen:nOpen+serveClosedRequests]
	return nil
}

// deck deals 0..n-1 in a fresh random order each round.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

func valuesText(vs []float64) []byte {
	var b []byte
	for _, v := range vs {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

// startServer replaces the running server with a fresh one on a new, empty
// cache store.
func (w *serveWorkload) startServer(e *env) error {
	w.close()
	w.servers++
	w.cache = filepath.Join(e.dir, fmt.Sprintf("serve-%d.cells", w.servers))
	if err := os.RemoveAll(w.cache); err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{CachePath: w.cache})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     w.conns,
		MaxIdleConnsPerHost: w.conns,
		DisableCompression:  true,
	}}
	resp, err := w.client.Get(w.url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close stops the server and waits for it to finish.
func (w *serveWorkload) close() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
	w.srv.Close()
	os.Remove(w.cache)
	w.hs = nil
}

// send performs one request and reads the whole response.
func (w *serveWorkload) send(rq *request) response {
	out := response{sent: time.Now()}
	resp, err := w.client.Post(w.url+rq.path, "text/plain", bytes.NewReader(rq.body))
	if err != nil {
		out.err = err
		return out
	}
	out.body, out.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status = resp.StatusCode
	out.cache = resp.Header.Get("X-Lossyts-Cache")
	return out
}

// openLoop releases each request at its scheduled time, whatever the
// responses are doing, onto conns connections. A request's latency runs
// from its scheduled time, so time it spends queued behind a stall counts.
func (w *serveWorkload) openLoop(reqs []*request, tr *tracer) []response {
	out := make([]response, len(reqs))
	// Sized to the number of sends, so the schedule never blocks on it.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(reqs[i].due)
				late := out[i].late
				out[i] = w.send(reqs[i])
				end := time.Now()
				out[i].latency = end.Sub(due)
				out[i].late = late
				if tr != nil {
					tr.record("serve.request."+reqs[i].kind, fmt.Sprintf("req-%d", reqs[i].id), 0, out[i].sent, end)
				}
			}
		}()
	}
	for i, rq := range reqs {
		if d := time.Until(start.Add(rq.due)); d > 0 {
			time.Sleep(d)
		}
		out[i].late = time.Since(start.Add(rq.due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop sends the requests back to back on conns connections and
// returns the responses and the phase's wall clock.
func (w *serveWorkload) closedLoop(reqs []*request) ([]response, time.Duration) {
	out := make([]response, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = w.send(reqs[i])
				out[i].latency = time.Since(out[i].sent)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// checkResponses checks every response against its request: compress
// payloads must equal the library's bytes for the same input and decode
// within the bound, decompressed values must pass the bound oracle, and
// responses of one key must be identical. It returns the digest of the
// responses in plan order.
func (w *serveWorkload) checkResponses(r *run, what string, reqs []*request, resps []response) string {
	d := newDigester()
	first := map[string][]byte{}
	decoded := map[int]bool{}
	for i, rq := range reqs {
		rs := resps[i]
		label := fmt.Sprintf("%s request %d (%s %s)", what, rq.id, rq.kind, rq.path)
		d.str(rq.kind)
		d.bytes(rs.body)
		if rs.err != nil || rs.status != http.StatusOK {
			r.fail("%s: status %d, %v: %.200s", label, rs.status, rs.err, rs.body)
			continue
		}
		var err error
		switch rq.kind {
		case "compress":
			if !bytes.Equal(rs.body, rq.want) {
				err = fmt.Errorf("payload differs from the library's for the same input")
			} else if !decoded[rq.key] {
				decoded[rq.key] = true
				err = checkPayload(rq, rs.body)
			}
		case "decompress":
			err = checkText(rq, rs.body)
		case "forecast":
			err = checkForecast(rs.body)
		}
		k := fmt.Sprintf("%s/%d", rq.kind, rq.key)
		if prev, ok := first[k]; ok && err == nil && !bytes.Equal(prev, rs.body) {
			err = fmt.Errorf("response differs from an earlier response to the same request")
		}
		first[k] = rs.body
		r.check(label, err)
	}
	return d.sum()
}

func checkPayload(rq *request, payload []byte) error {
	s, err := (&compress.Compressed{Method: rq.method, Payload: payload}).Decompress()
	if err != nil {
		return err
	}
	return checkBound(rq.values, s.Values, rq.eps)
}

func checkText(rq *request, body []byte) error {
	vals := make([]float64, 0, len(rq.values))
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return fmt.Errorf("response line %d: %q", len(vals)+1, line)
		}
		vals = append(vals, v)
	}
	return checkBound(rq.values, vals, rq.eps)
}

func checkForecast(body []byte) error {
	var f struct {
		Windows  int `json:"windows"`
		Baseline struct {
			NRMSE float64 `json:"nrmse"`
		} `json:"baseline"`
		TFE *float64 `json:"tfe"`
	}
	if err := json.Unmarshal(body, &f); err != nil {
		return err
	}
	if f.Windows == 0 || f.TFE == nil || isBad(*f.TFE) || isBad(f.Baseline.NRMSE) {
		return fmt.Errorf("forecast response lacks scores: %.200s", body)
	}
	return nil
}

// latencies returns the open-loop latencies in ms, a failed request
// counting as +Inf so that it misses every limit.
func latencies(resps []response, keep func(i int) bool) []float64 {
	var out []float64
	for i, rs := range resps {
		if !keep(i) {
			continue
		}
		if rs.err != nil || rs.status != http.StatusOK {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(rs.latency))
	}
	return out
}

// finite caps an +Inf percentile (more failures than the percentile
// allows) at the longest finite sample, so the figure stays a number;
// the failures already make the run incorrect.
func finite(p float64, xs []float64) float64 {
	if !math.IsInf(p, 1) {
		return p
	}
	var m float64
	for _, x := range xs {
		if !math.IsInf(x, 1) && x > m {
			m = x
		}
	}
	return m
}

func (w *serveWorkload) measure(e *env, r *run) error {
	var open, closed []response
	var wall time.Duration
	_, peak, err := timedOp(func() (time.Duration, error) {
		open = w.openLoop(w.open, nil)
		closed, wall = w.closedLoop(w.closed)
		return wall, nil
	})
	if err != nil {
		return err
	}
	r.agree("responses", digestOf(w.checkResponses(r, "open loop", w.open, open),
		w.checkResponses(r, "closed loop", w.closed, closed)))
	lat := latencies(open, func(int) bool { return true })
	p50, p99 := finite(percentile(lat, 50), lat), finite(percentile(lat, 99), lat)
	rps := float64(len(closed)) / wall.Seconds()
	r.e2e["latency_p50_ms"] = p50
	r.e2e["latency_p99_ms"] = p99
	r.e2e["throughput_per_s"] = rps
	r.e2e["peak_rss_mb"] = peak
	r.name("serve_p50_ms", p50, "ms")
	r.name("serve_p99_ms", p99, "ms")
	r.name("serve_rps", rps, "req/s")
	var late []float64
	for _, rs := range open {
		late = append(late, ms(rs.late))
	}
	r.extra["samples"] = map[string]any{
		"open_loop_requests":    len(open),
		"open_loop_rate_per_s":  serveRate,
		"connections":           w.conns,
		"closed_loop_requests":  len(closed),
		"closed_loop_wall_s":    wall.Seconds(),
		"generator_late_p99_ms": percentile(late, 99),
	}
	return nil
}

// traced runs the open loop twice on fresh servers, untraced and then
// traced, splits the traced latencies by endpoint and cache outcome, reads
// the server's counters from GET /v1/stats, and times the stream encoder
// and decoder over the compress bodies at the server's chunk size.
func (w *serveWorkload) traced(e *env, r *run) error {
	tr := e.tr
	if _, err := serveSeries(tr); err != nil {
		return err
	}
	plain := w.openLoop(w.open, nil)
	plainSum := w.checkResponses(r, "untraced open loop", w.open, plain)
	if err := w.startServer(e); err != nil {
		return err
	}
	resps := w.openLoop(w.open, tr)
	sum := w.checkResponses(r, "traced open loop", w.open, resps)
	if sum != plainSum {
		r.fail("traced open loop: output digest %s differs from the untraced %s", sum, plainSum)
	}
	// The closed loop completes the run's digest, as in an untraced run.
	closed, _ := w.closedLoop(w.closed)
	r.agree("responses", digestOf(sum, w.checkResponses(r, "closed loop", w.closed, closed)))

	all := func(int) bool { return true }
	base, traced := latencies(plain, all), latencies(resps, all)
	r.extra["trace_overhead"] = map[string]float64{
		"untraced_p50_ms": percentile(base, 50),
		"traced_p50_ms":   percentile(traced, 50),
		"untraced_p99_ms": percentile(base, 99),
		"traced_p99_ms":   percentile(traced, 99),
	}
	var late []float64
	for i, rs := range resps {
		late = append(late, ms(rs.late))
		r.layers["serve.bytes_in"] += float64(len(w.open[i].body))
		r.layers["serve.bytes_out"] += float64(len(rs.body))
	}
	r.layers["serve.generator_late_p99_ms"] = percentile(late, 99)
	for _, k := range serveKinds {
		kind, outcome, _ := strings.Cut(k, ".")
		lat := latencies(resps, func(i int) bool {
			return w.open[i].kind == kind && (outcome == "" || resps[i].cache == outcome)
		})
		if len(lat) > 0 {
			r.layers["serve.p50_ms."+k] = finite(percentile(lat, 50), lat)
			r.layers["serve.p99_ms."+k] = finite(percentile(lat, 99), lat)
		}
	}

	resp, err := w.client.Get(w.url + "/v1/stats")
	if err != nil {
		return err
	}
	var st serve.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r.layers["serve.requests"] = float64(st.Requests)
	r.layers["serve.hits"] = float64(st.Hits)
	r.layers["serve.dedups"] = float64(st.Dedups)
	r.layers["serve.computations"] = float64(st.Computations)
	if st.Requests > 0 {
		r.layers["serve.hit_ratio"] = float64(st.Hits) / float64(st.Requests)
	}
	if fi, err := os.Stat(w.cache); err == nil {
		r.layers["cellstore.journal_bytes"] = float64(fi.Size())
	}
	w.probeStream(r, tr)

	for name, d := range tr.selfTimes() {
		if metric := layerOf(name); metric != "" {
			r.layers[metric] += d.Seconds()
		}
	}
	for _, s := range w.series {
		r.layers["datasets.points"] += float64(s.Len())
	}
	return nil
}

// probeStream encodes each distinct compress body of the open loop with a
// stream encoder fed at the server's chunk size, as /v1/compress does, and
// decodes the payload with a stream decoder, as /v1/decompress does.
func (w *serveWorkload) probeStream(r *run, tr *tracer) {
	seen := map[int]bool{}
	for _, rq := range w.open {
		if rq.kind != "compress" || seen[rq.key] {
			continue
		}
		seen[rq.key] = true
		what := fmt.Sprintf("stream probe %s ε=%v, %d points", rq.method, rq.eps, len(rq.values))
		var c *compress.Compressed
		_, err := tr.timed("compress.stream_encode", "probe", 0, func() error {
			enc, err := compress.NewStreamEncoderAt(rq.method, 0, 1, rq.eps)
			if err != nil {
				return err
			}
			defer enc.Release()
			for i := 0; i < len(rq.values); i += timeseries.DefaultChunkSize {
				j := min(i+timeseries.DefaultChunkSize, len(rq.values))
				if err := enc.PushChunk(timeseries.Chunk{Start: int64(i), Interval: 1, Values: rq.values[i:j]}); err != nil {
					return err
				}
			}
			c, err = enc.Close()
			return err
		})
		var vals []float64
		if err == nil {
			_, err = tr.timed("compress.stream_decode", "probe", 0, func() error {
				dec, err := compress.NewStreamDecoder(c, timeseries.DefaultChunkSize)
				if err != nil {
					return err
				}
				defer dec.Release()
				for {
					ch, ok := dec.Next()
					if !ok {
						break
					}
					vals = append(vals, ch.Values...)
				}
				return dec.Err()
			})
		}
		if err == nil {
			err = checkBound(rq.values, vals, rq.eps)
		}
		r.check(what, err)
	}
}

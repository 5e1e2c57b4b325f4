package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/factor"
	"repro/internal/obs"
)

// The traced run's service leg drives a cmd/facsvc child process with its
// default flags (cache and batching on, workers = nproc) over loopback
// HTTP. Only the listen addresses are set: the service port and, for the
// child's runtime.MemStats, its opt-in pprof port.

// child is one running facsvc process.
type child struct {
	cmd   *exec.Cmd
	base  string // service URL
	pprof string // pprof URL
	logs  chan struct{}
}

var (
	listenRE = regexp.MustCompile(`facsvc: listening on (\S+)`)
	pprofRE  = regexp.MustCompile(`facsvc: pprof on (\S+)`)
)

// startChild starts facsvc and returns once /readyz answers 200.
func startChild(ctx context.Context, path string, client *http.Client) (*child, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0")
	// The child dies with the benchmark even if the benchmark crashes
	// before stop runs (Linux).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start facsvc: %w", err)
	}
	c := &child{cmd: cmd, logs: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(c.logs)
		var svc, prof string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				svc = m[1]
			}
			if m := pprofRE.FindStringSubmatch(sc.Text()); m != nil {
				prof = m[1]
			}
			if svc != "" && prof != "" {
				addrs <- [2]string{svc, prof}
				svc = ""
			}
		}
	}()
	fail := func(err error) (*child, error) {
		c.stop()
		return nil, err
	}
	select {
	case a := <-addrs:
		c.base, c.pprof = "http://"+a[0], "http://"+a[1]
	case <-c.logs:
		return fail(errors.New("facsvc exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("facsvc did not report its address within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("facsvc not ready within 30s (last error %v)", err))
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the child if
// it has not exited within ten seconds.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait reports that
	exited := make(chan struct{})
	go func() {
		<-c.logs
		_ = c.cmd.Wait() // exit status after SIGTERM is not the benchmark's concern
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill() // already-exited races are harmless
		<-exited
	}
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// encode builds the request's path, content type and body.
func encode(q request, a *factor.Matrix) (string, string, []byte) {
	op := "lu"
	if q.QR {
		op = "qr"
	}
	if !q.JSON {
		body := make([]byte, 0, 8*len(a.Data))
		for _, v := range a.Data {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
		}
		return fmt.Sprintf("/v1/%s?rows=%d&cols=%d&cache=1", op, q.Rows, q.Cols), "application/octet-stream", body
	}
	body := make([]byte, 0, 24*len(a.Data)+64)
	body = fmt.Appendf(body, `{"rows":%d,"cols":%d,"cache":true,"data":[`, q.Rows, q.Cols)
	for i, v := range a.Data {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, v, 'g', -1, 64)
	}
	body = append(body, "]}"...)
	return "/v1/" + op, "application/json", body
}

// decodeFloats reads a little-endian float64 body.
func decodeFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// checkResponse decodes a 200 response and checks it against the input.
func checkResponse(q request, a *factor.Matrix, h http.Header, body []byte, seed int64, index uint64) error {
	var rows, cols int
	var data []float64
	var perm []int
	if q.JSON {
		var js struct {
			Rows    int       `json:"rows"`
			Cols    int       `json:"cols"`
			Factors []float64 `json:"factors"`
			R       []float64 `json:"r"`
			Perm    []int     `json:"perm"`
		}
		if err := json.Unmarshal(body, &js); err != nil {
			return fmt.Errorf("decode JSON response: %w", err)
		}
		rows, cols, data, perm = js.Rows, js.Cols, js.Factors, js.Perm
		if q.QR {
			data = js.R
		}
	} else {
		var err1, err2 error
		rows, err1 = strconv.Atoi(h.Get("X-Matrix-Rows"))
		cols, err2 = strconv.Atoi(h.Get("X-Matrix-Cols"))
		if err := errors.Join(err1, err2); err != nil {
			return fmt.Errorf("response shape headers: %w", err)
		}
		data = decodeFloats(body)
		if !q.QR {
			for _, f := range strings.Fields(h.Get("X-Permutation")) {
				p, err := strconv.Atoi(f)
				if err != nil {
					return fmt.Errorf("X-Permutation: %w", err)
				}
				perm = append(perm, p)
			}
		}
	}
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		return fmt.Errorf("response is %dx%d with %d values", rows, cols, len(data))
	}
	f := factor.FromColMajor(rows, cols, rows, data)
	if q.QR {
		return checkAll(checkGram(a, f, seed, index))
	}
	return checkAll(checkLU(a, f, perm, seed, index))
}

// item is one prepared request: its schedule entry and encoded body.
// Repeats share their original's body.
type item struct {
	q    request
	path string
	ct   string
	body []byte
}

// prepare generates and encodes every request of the schedule, so the
// stream itself does no generator work but sending.
func (r *runner) prepare(sch []request) []item {
	items := make([]item, len(sch))
	byMatrix := map[uint64]item{}
	for i, q := range sch {
		if it, ok := byMatrix[q.Matrix]; ok && q.Repeat {
			it.q = q
			items[i] = it
			continue
		}
		it := item{q: q}
		it.path, it.ct, it.body = encode(q, genMatrix(q.Rows, q.Cols, r.seed, q.Matrix))
		items[i] = it
		byMatrix[q.Matrix] = it
	}
	return items
}

// outcome is one finished request.
type outcome struct {
	late   time.Duration // how late the generator dispatched it
	lat    time.Duration // from the scheduled send time to the full response
	client time.Duration // from the actual send to the full response
	status int
	header http.Header
	resp   []byte
	err    error
}

// streamResult summarises one open-loop stream.
type streamResult struct {
	attempted, good int
	late            []float64 // generator lateness, seconds, all requests
	clientSum       float64   // seconds from send to response, successful requests
}

// lateLimit is how late (p99) the generator may dispatch before a run is
// invalid: past it the generator, not the server, is the bottleneck.
const lateLimit = 50 * time.Millisecond

// stream sends the prepared requests to the child open-loop over at most
// r.workers keep-alive connections, timing each from its scheduled send
// time. Responses are kept and checked after the stream ends.
func (r *runner) stream(ctx context.Context, c *child, client *http.Client, items []item) (*streamResult, error) {
	outs := make([]outcome, len(items))
	dues := make([]time.Time, len(items))
	work := make(chan int, len(items))
	var senders sync.WaitGroup
	for k := 0; k < r.workers; k++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range work {
				it, o := items[i], &outs[i]
				sent := time.Now()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+it.path, bytes.NewReader(it.body))
				if err == nil {
					req.Header.Set("Content-Type", it.ct)
					var resp *http.Response
					resp, err = client.Do(req)
					if err == nil {
						o.status, o.header = resp.StatusCode, resp.Header
						o.resp, err = io.ReadAll(resp.Body)
						resp.Body.Close()
					}
				}
				now := time.Now()
				o.lat, o.client, o.err = now.Sub(dues[i]), now.Sub(sent), err
			}
		}()
	}

	start := time.Now()
	var err error
dispatch:
	for i, it := range items {
		dues[i] = start.Add(it.q.At)
		if d := time.Until(dues[i]); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				err = ctx.Err()
				break dispatch
			}
		}
		outs[i].late = max(0, time.Since(dues[i]))
		work <- i
	}
	close(work)
	senders.Wait()
	if err != nil {
		return nil, err
	}

	res := &streamResult{}
	for i, o := range outs {
		it := items[i]
		res.attempted++
		res.late = append(res.late, o.late.Seconds())
		switch {
		case o.err != nil:
			r.fail("request %d: %v", i, o.err)
			continue
		case o.status != http.StatusOK:
			r.fail("request %d: HTTP %d: %s", i, o.status, bytes.TrimSpace(o.resp))
			continue
		}
		a := genMatrix(it.q.Rows, it.q.Cols, r.seed, it.q.Matrix)
		if err := checkResponse(it.q, a, o.header, o.resp, r.seed, uint64(i)); err != nil {
			r.checked(fmt.Sprintf("request %d", i), err)
			continue
		}
		if o.lat > serviceLimit {
			r.fail("request %d took %v, over the %v limit", i, o.lat, serviceLimit)
			continue
		}
		res.good++
		res.clientSum += o.client.Seconds()
	}
	return res, nil
}

// scrape reads the child's /metrics through obs.ParseText and returns each
// sample name summed over its label sets.
func scrape(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics sums each sample name of a text exposition over its label
// sets.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	fams, err := obs.ParseText(r)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

var memStatRE = regexp.MustCompile(`(?m)^# (TotalAlloc|Mallocs) = (\d+)$`)

// heapStats reads the child's runtime.MemStats TotalAlloc and Mallocs from
// its pprof heap endpoint (which does not force a GC).
func heapStats(ctx context.Context, client *http.Client, c *child) (alloc, mallocs float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.pprof+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, fmt.Errorf("heap profile: %w", err)
	}
	m := memStatRE.FindAllSubmatch(b, -1)
	if len(m) != 2 {
		return 0, 0, errors.New("heap profile lacks TotalAlloc and Mallocs")
	}
	for _, s := range m {
		v, _ := strconv.ParseFloat(string(s[2]), 64) // \d+ always parses
		if string(s[1]) == "TotalAlloc" {
			alloc = v
		} else {
			mallocs = v
		}
	}
	return alloc, mallocs, nil
}

// warm sends one request of every kind the stream uses, from matrix
// streams the stream never touches, so the child's caches stay cold for it.
func (r *runner) warm(ctx context.Context, c *child, client *http.Client) error {
	var sch []request
	k := uint64(warmIndex)
	for _, s := range [][2]int{smallShapes[0], smallShapes[len(smallShapes)-1], largeShape} {
		for _, qr := range []bool{false, true} {
			for _, js := range []bool{false, true} {
				sch = append(sch, request{QR: qr, JSON: js, Rows: s[0], Cols: s[1], Matrix: k})
				k++
			}
		}
	}
	for _, q := range sch {
		a := genMatrix(q.Rows, q.Cols, r.seed, q.Matrix)
		path, ct, body := encode(q, a)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ct)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up request: HTTP %d %v: %s", resp.StatusCode, err, bytes.TrimSpace(b))
		}
		if err := checkResponse(q, a, resp.Header, b, r.seed, q.Matrix); err != nil {
			return fmt.Errorf("warm-up response: %w", err)
		}
	}
	return nil
}

// setupService draws the schedule, generates and encodes its inputs, and
// starts and warms the child.
func (r *runner) setupService(ctx context.Context, client *http.Client, d time.Duration) (*child, []item, error) {
	items := r.prepare(schedule(r.seed, serviceRate, d))
	if len(items) == 0 {
		return nil, nil, errors.New("empty schedule")
	}
	c, err := startChild(ctx, r.facsvc, client)
	if err != nil {
		return nil, nil, err
	}
	if err := r.warm(ctx, c, client); err != nil {
		c.stop()
		return nil, nil, err
	}
	return c, items, nil
}

// serviceLeg runs one measured stream and returns it with the /metrics and
// MemStats deltas over it.
type serviceLeg struct {
	res                 *streamResult
	delta               map[string]float64
	allocBytes, mallocs float64
}

func (r *runner) runService(ctx context.Context, d time.Duration) (*serviceLeg, error) {
	client := newClient(r.workers)
	defer client.CloseIdleConnections()
	c, items, err := r.setupService(ctx, client, d)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	before, err := scrape(ctx, client, c.base+"/metrics")
	if err != nil {
		return nil, err
	}
	a0, m0, err := heapStats(ctx, client, c)
	if err != nil {
		return nil, err
	}
	res, err := r.stream(ctx, c, client, items)
	if err != nil {
		return nil, err
	}
	a1, m1, err := heapStats(ctx, client, c)
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, client, c.base+"/metrics")
	if err != nil {
		return nil, err
	}
	r.attempted += res.attempted
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	lp := tailPercentile(res.late, 0.99)
	fmt.Printf("generator: %d requests at %.0f/s over %.1fs; dispatch lateness p%.4g %.3fms (limit %v)\n",
		len(items), float64(serviceRate), d.Seconds(), 100*lp.Pct, 1e3*lp.Value, lateLimit)
	if lp.Value > lateLimit.Seconds() {
		return nil, fmt.Errorf("invalid run: the generator ran %.1fms late at p%.4g, over %v", 1e3*lp.Value, 100*lp.Pct, lateLimit)
	}
	if res.good == 0 {
		return nil, errors.New("no successful request")
	}
	return &serviceLeg{res: res, delta: delta, allocBytes: a1 - a0, mallocs: m1 - m0}, nil
}

// serviceLayers reports the facsvc and factor layer metrics of a stream.
func (r *runner) serviceLayers(leg *serviceLeg) {
	d, res := leg.delta, leg.res
	n := d["facsvc_http_request_seconds_count"]
	handler := d["facsvc_http_request_seconds_sum"]
	engine := d["facsvc_engine_request_seconds_sum"]
	r.set("facsvc.codec_ms_mean", 1e3*(handler-engine)/n, "ms")
	r.set("facsvc.wire_ms_mean", 1e3*(res.clientSum-handler)/n, "ms")
	hits, misses := d["facsvc_engine_cache_hits_total"], d["facsvc_engine_cache_misses_total"]
	r.set("factor.cache_hit_ratio", hits/(hits+misses), "frac")
	r.set("factor.batch_mean_size", d["facsvc_engine_batched_requests_total"]/d["facsvc_engine_batch_flushes_total"], "count")
	r.set("gen.late_ms_p99", 1e3*tailPercentile(res.late, 0.99).Value, "ms")
	fmt.Printf("ledger service: client %.3fms = wire %.3fms + handler %.3fms (codec %.3fms + engine %.3fms), per request over %d; engine retries %.0f, shed %.0f; child heap %.3g MB and %.0f mallocs per request\n",
		1e3*res.clientSum/n, 1e3*(res.clientSum-handler)/n, 1e3*handler/n, 1e3*(handler-engine)/n, 1e3*engine/n, int(n),
		d["facsvc_engine_retries_total"], d["facsvc_engine_shed_total"], leg.allocBytes/float64(res.attempted)/1e6, leg.mallocs/float64(res.attempted))
	// Each layer's time must fit inside its caller's: the server's handler
	// time inside the client's, the engine's inside the handler's.
	if over := max((handler-res.clientSum)/res.clientSum, (engine-handler)/handler); over > unattributedTol {
		r.fail("service ledger: a layer exceeds its caller's time by %.3g of it, over %.2g", over, unattributedTol)
	}
}

// traced is the per-layer run: a service leg (a short stream of the
// service mix, since the workloads themselves do not cross HTTP) and the
// in-process legs at the workload's shape.
func (r *runner) traced(ctx context.Context) error {
	d := time.Duration(float64(r.dur) * serviceShare)
	leg, err := r.runService(ctx, d)
	if err != nil {
		return err
	}
	r.serviceLayers(leg)
	return r.inProcess(ctx, r.dur-d)
}

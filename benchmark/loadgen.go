package main

// The closed-loop load generator. It runs as many clients as the machine
// has processors (never fewer than two: a refresh needs a writer and a
// reader), each on its own connection, each alternating one calibration
// slice with one request — so the cores are always busy with either a
// request or a slice, the occupancy under which the slice time tracks the
// machine's speed.
//
// Closed loop is deliberate: on two shared cores an open-loop rate sweep
// needs several long windows and its pass/fail edge is the noisiest
// number available; latency and capacity at c = nproc bound that curve.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

const (
	topK           = 10
	visibleTimeout = 60 * time.Second
	swapFamily     = "pit_stream_engine_swaps_total"
)

// client is one closed-loop caller. lat and slices collect the raw
// timings (ms) of the stretch in progress; only the client's own
// goroutine touches them until the stretch's WaitGroup is done.
type client struct {
	cal    *calibrator
	http   *http.Client
	lat    []float64
	slices []float64
}

func newClient() *client {
	return &client{
		cal:  newCalibrator(),
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
	}
}

func (c *client) reset() { c.lat, c.slices = c.lat[:0], c.slices[:0] }

func (c *client) slice() { c.slices = append(c.slices, c.cal.slice()) }

// loadgen drives one server. Operation counts are shared by the clients.
type loadgen struct {
	srv     *pitserve
	clients []*client
	method  string // the wire value: lrw or rcl
	ops     opCounts
}

type opCounts struct {
	attempted, failed atomic.Int64
	reported          atomic.Int64 // failures described on stderr so far
}

// fail counts one failed operation and describes the first few.
func (o *opCounts) fail(format string, args ...any) {
	o.failed.Add(1)
	if o.reported.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED "+format+"\n", args...)
	}
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.http.CloseIdleConnections()
	}
}

// search issues one request and validates the answer's form. It returns
// the decoded response (nil when the operation failed) and the latency
// from send to last body byte, in ms.
func (lg *loadgen) search(ctx context.Context, c *client, q request) (*server.SearchResponse, float64) {
	lg.ops.attempted.Add(1)
	u := lg.srv.api + "/search?q=" + url.QueryEscape(q.query()) + "&user=" + strconv.Itoa(int(q.User)) +
		"&k=" + strconv.Itoa(topK) + "&method=" + lg.method
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		lg.ops.fail("%v: %v", q, err)
		return nil, 0
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		lg.ops.fail("%v: %v", q, err)
		return nil, ms(time.Since(t0))
	}
	body, err := io.ReadAll(resp.Body)
	lat := ms(time.Since(t0))
	resp.Body.Close()
	if err != nil {
		lg.ops.fail("%v: read body: %v", q, err)
		return nil, lat
	}
	if resp.StatusCode != http.StatusOK {
		lg.ops.fail("%v: status %d: %s", q, resp.StatusCode, bytes.TrimSpace(body))
		return nil, lat
	}
	var out server.SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		lg.ops.fail("%v: decode: %v", q, err)
		return nil, lat
	}
	if msg := malformed(&out); msg != "" {
		lg.ops.fail("%v: %s", q, msg)
		return nil, lat
	}
	return &out, lat
}

// malformed says what is wrong with an answer's form, or "".
func malformed(r *server.SearchResponse) string {
	if r.Tier != "full" || r.Degraded {
		return "served by tier " + r.Tier + ", want full"
	}
	if len(r.Results) != topK {
		return fmt.Sprintf("%d rows, want %d", len(r.Results), topK)
	}
	for i, row := range r.Results {
		if row.Rank != i+1 {
			return fmt.Sprintf("row %d has rank %d", i, row.Rank)
		}
		if i > 0 && row.Score > r.Results[i-1].Score {
			return fmt.Sprintf("scores not monotone at row %d", i)
		}
	}
	return ""
}

// stretch is what one pass over a list of requests collected.
type stretch struct {
	perClient [][]float64 // raw latencies by client, ms
	slices    []float64   // raw calibration slices of every client, ms
	wallMs    float64
	cpuMs     float64                  // server utime+stime over the pass
	answers   []*server.SearchResponse // by request index; nil entries failed
}

func (s *stretch) latencies() []float64 {
	var all []float64
	for _, l := range s.perClient {
		all = append(all, l...)
	}
	return all
}

// pass sends reqs once through the first n clients, which pull from a
// shared cursor so all stay busy to the end.
func (lg *loadgen) pass(ctx context.Context, reqs []request, n int) (stretch, error) {
	st := stretch{answers: make([]*server.SearchResponse, len(reqs))}
	cpu0, err := lg.srv.cpuTicks()
	if err != nil {
		return st, err
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	t0 := time.Now()
	for _, c := range lg.clients[:n] {
		c.reset()
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				c.slice()
				ans, lat := lg.search(ctx, c, reqs[i])
				c.lat = append(c.lat, lat)
				st.answers[i] = ans
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return st, err
	}
	st.wallMs = ms(time.Since(t0))
	cpu1, err := lg.srv.cpuTicks()
	if err != nil {
		return st, err
	}
	st.cpuMs = (cpu1 - cpu0) * ms(clockTick)
	for _, c := range lg.clients[:n] {
		st.perClient = append(st.perClient, append([]float64(nil), c.lat...))
		st.slices = append(st.slices, c.slices...)
	}
	return st, nil
}

// refreshSample is one update batch seen from outside, raw.
type refreshSample struct {
	ackMs     float64   // POST /updates sent → 202 read
	visibleMs float64   // POST sent → swap and every rebuild observed
	overlap   []float64 // searches that ran beside the refresh, ms
	refill    []float64 // first search of each warm tag after the swap, ms
	slices    []float64
	cpuMs     float64
}

const buildFamily = "pit_index_build_duration_seconds_count"

// refresh applies one batch. Client 0 posts it and then polls the ops
// listener, one calibration slice between polls; the other clients issue
// the overlap reads (reads beside writes) and then spin slices, so the
// occupancy stays constant and the work per refresh is fixed. The batch is
// visible once the swap counter has moved and every engine it rebuilds has
// built (builds: one per shard — the swap counter alone follows shard 0,
// which finishes anywhere between first and last of four concurrent
// rebuilds). Then client 0 issues the refill searches: the first touch
// of each warm tag on the fresh engine, which rebuilds its summaries on
// the query path.
func (lg *loadgen) refresh(ctx context.Context, batch []edge, overlap, refill []request, builds int) (refreshSample, error) {
	var rs refreshSample
	before, err := lg.srv.scrape()
	if err != nil {
		return rs, err
	}
	cpu0, err := lg.srv.cpuTicks()
	if err != nil {
		return rs, err
	}
	payload, err := json.Marshal(struct {
		Updates []edge `json:"updates"`
	}{batch})
	if err != nil {
		return rs, err
	}
	for _, c := range lg.clients {
		c.reset()
	}

	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		swapped atomic.Bool
	)
	for _, c := range lg.clients[1:] {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !swapped.Load() {
				c.slice()
				if i := int(next.Add(1)) - 1; i < len(overlap) {
					_, lat := lg.search(ctx, c, overlap[i])
					c.lat = append(c.lat, lat)
				}
			}
		}(c)
	}
	writer := lg.clients[0]
	postErr := func() error {
		defer swapped.Store(true)
		writer.slice()
		lg.ops.attempted.Add(1)
		sent := time.Now()
		post, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.srv.api+"/updates", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		post.Header.Set("Content-Type", "application/json")
		resp, err := writer.http.Do(post)
		if err != nil {
			lg.ops.fail("POST /updates: %v", err)
			return err
		}
		body, err := io.ReadAll(resp.Body)
		rs.ackMs = ms(time.Since(sent))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			lg.ops.fail("POST /updates: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
			return fmt.Errorf("POST /updates = %d", resp.StatusCode)
		}
		for {
			writer.slice()
			now, err := lg.srv.scrape()
			if err != nil {
				return err
			}
			if now.sum(swapFamily) > before.sum(swapFamily) && now.sum(buildFamily) >= before.sum(buildFamily)+float64(builds) {
				rs.visibleMs = ms(time.Since(sent))
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if time.Since(sent) > visibleTimeout {
				lg.ops.fail("update batch not applied after %v", visibleTimeout)
				return fmt.Errorf("no engine swap %v after an accepted batch", visibleTimeout)
			}
		}
	}()
	wg.Wait()
	if postErr != nil {
		return rs, postErr
	}
	for _, c := range lg.clients[1:] {
		rs.overlap = append(rs.overlap, c.lat...)
		c.lat = c.lat[:0]
	}

	// Refills go out one at a time: two at once would queue on whatever
	// the summarizer serialises (RCL-A's is one mutex), and the median of
	// "alone or second in line" is a coin toss. The other clients spin.
	var refilled atomic.Bool
	for _, c := range lg.clients[1:] {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !refilled.Load() {
				c.slice()
			}
		}(c)
	}
	for _, q := range refill {
		if ctx.Err() != nil {
			break
		}
		writer.slice()
		_, lat := lg.search(ctx, writer, q)
		rs.refill = append(rs.refill, lat)
	}
	refilled.Store(true)
	wg.Wait()
	cpu1, err := lg.srv.cpuTicks()
	if err != nil {
		return rs, err
	}
	rs.cpuMs = (cpu1 - cpu0) * ms(clockTick)
	for _, c := range lg.clients {
		rs.slices = append(rs.slices, c.slices...)
	}
	return rs, ctx.Err()
}

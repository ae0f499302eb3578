package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"dualtopo/internal/dtrd"
	"dualtopo/internal/obs"
)

// daemon is dtrd served in-process exactly as cmd/dtrd builds it: the
// server's handler in an http.Server on an ephemeral loopback port, with a
// registry of its own.
type daemon struct {
	srv    *dtrd.Server
	http   *http.Server
	url    string
	served chan error
}

func startDaemon() (*daemon, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	srv := dtrd.New(dtrd.Config{Registry: obs.NewRegistry()})
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url:    "http://" + lis.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(lis) }()
	return d, nil
}

// stop shuts the listener down and returns once the serve goroutine and the
// server's metrics ticker have exited.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // clients are closed first; nothing is in flight
	<-d.served
	d.srv.Close()
}

// client is one closed-loop caller: a keep-alive connection of its own and a
// reused read buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// post returns the status and the whole response body; the body is only
// valid until the next call.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// memWriter is the in-memory http.ResponseWriter the traced run replays
// request bodies into.
type memWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *memWriter) reset() {
	w.header, w.code = make(http.Header), http.StatusOK
	w.body.Reset()
}

// serveInMemory replays one request body through the daemon's handler
// without a socket.
func (d *daemon) serveInMemory(w *memWriter, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	w.reset()
	d.srv.Handler().ServeHTTP(w, req)
	if w.code != http.StatusOK {
		return fmt.Errorf("in-memory %s: status %d: %s", path, w.code, w.body.Bytes())
	}
	return nil
}

// loadTopology POSTs the load request and returns the topology's API path.
func (d *daemon) loadTopology(c *client, req dtrd.LoadRequest, wantArcs int) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	status, resp, err := c.post(d.url+"/v1/topologies", body)
	if err != nil {
		return "", fmt.Errorf("bench: load topology: %w", err)
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("bench: load topology: status %d: %s", status, resp)
	}
	var info dtrd.TopologyInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		return "", fmt.Errorf("bench: load topology: %w", err)
	}
	if info.Arcs != wantArcs || info.PoolSize != req.PoolSize {
		return "", fmt.Errorf("bench: daemon loaded %d arcs, pool %d; the instance built beside it has %d arcs, pool %d",
			info.Arcs, info.PoolSize, wantArcs, req.PoolSize)
	}
	return "/v1/topologies/" + info.ID, nil
}

// perClient runs fn once per client, concurrently, and waits for all.
func perClient(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// windows is how many equal slices a measured phase is cut into. Every
// end-to-end timing is the median over the slices of the slice's own value,
// so a burst of interference that lands in fewer than half of them does not
// move the result.
const windows = 5

// window is one slice of a measured phase.
type window struct {
	lat  []time.Duration // successful ops that completed in the slice
	ops  int             // ops the slice's rate counts; len(lat) unless set
	span time.Duration
}

// loopResult is what one measured phase produced.
type loopResult struct {
	windows   []window
	attempted int
	failed    int
	firstErr  error
}

// succeeded counts the ops that completed and passed their check.
func (r loopResult) succeeded() (n int) {
	for _, w := range r.windows {
		n += len(w.lat)
	}
	return n
}

// closedLoop drives op from n clients for d: each client issues its next op
// only when the previous one returned. op reports the op's latency; a
// non-nil error counts the op as failed and it contributes no latency.
// stop, when non-nil, ends the phase early once it reports true.
func closedLoop(n int, d time.Duration, op func(c, k int) (time.Duration, error), stop func() bool) loopResult {
	type clientResult struct {
		lat               [windows][]time.Duration
		attempted, failed int
		firstErr          error
	}
	results := make([]clientResult, n)
	start := time.Now()
	perClient(n, func(c int) {
		r := &results[c]
		for k := 0; (stop == nil || !stop()) && time.Since(start) < d; k++ {
			r.attempted++
			lat, err := op(c, k)
			if err != nil {
				r.failed++
				if r.firstErr == nil {
					r.firstErr = err
				}
				continue
			}
			// An op that started before the deadline and ended after it
			// belongs to the last slice.
			i := min(windows-1, int(time.Since(start)*windows/d))
			r.lat[i] = append(r.lat[i], lat)
		}
	})
	total := loopResult{windows: make([]window, windows)}
	for i := range total.windows {
		total.windows[i].span = d / windows
		for _, r := range results {
			total.windows[i].lat = append(total.windows[i].lat, r.lat[i]...)
		}
	}
	for _, r := range results {
		total.attempted += r.attempted
		total.failed += r.failed
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
	}
	return total
}

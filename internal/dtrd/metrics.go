package dtrd

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dualtopo/internal/obs"
)

// metrics is the server's request-scoped telemetry: per-endpoint latency
// histograms (the p50/p99 source), request counts by endpoint and status
// code, an in-flight gauge, and a once-a-second QPS + quantile refresher.
type metrics struct {
	latency        *obs.HistogramVec // dtrd_request_seconds{endpoint}
	latencyAll     *obs.Histogram    // aggregate across endpoints
	requests       *obs.CounterVec   // dtrd_requests_total{endpoint,code}
	inflight       *obs.Gauge
	topologies     *obs.Gauge
	jobsRunning    *obs.Gauge
	leakedReleases *obs.Counter
	qps            *obs.Gauge
	p50, p99       *obs.Gauge

	total    atomic.Int64 // all requests, the QPS numerator
	lastSeen int64        // total at the previous tick (ticker goroutine only)
	stopCh   chan struct{}
	stopOnce atomic.Bool
}

func newMetrics(r *obs.Registry) *metrics {
	m := &metrics{
		latency: r.HistogramVec("dtrd_request_seconds",
			"API request latency by endpoint.", obs.DefBuckets, "endpoint"),
		latencyAll: r.Histogram("dtrd_request_seconds_all",
			"API request latency across all endpoints.", obs.DefBuckets),
		requests: r.CounterVec("dtrd_requests_total",
			"API requests by endpoint and status code.", "endpoint", "code"),
		inflight: r.Gauge("dtrd_requests_inflight",
			"API requests currently being served."),
		topologies: r.Gauge("dtrd_topologies",
			"Topologies currently loaded."),
		jobsRunning: r.Gauge("dtrd_jobs_running",
			"Search jobs currently running."),
		leakedReleases: r.Counter("dtrd_leaked_releases_total",
			"Session releases that tripped the engine's checkpoint-leak assertion."),
		qps: r.Gauge("dtrd_qps",
			"API requests served in the last second."),
		p50: r.Gauge("dtrd_request_p50_seconds",
			"Estimated p50 API request latency (bucket upper bound)."),
		p99: r.Gauge("dtrd_request_p99_seconds",
			"Estimated p99 API request latency (bucket upper bound)."),
		stopCh: make(chan struct{}),
	}
	go m.tick()
	return m
}

// endpointSeries is one endpoint's latency histogram and code="200" request
// counter, resolved once so that a 200 response builds no label key.
type endpointSeries struct {
	name    string
	latency *obs.Histogram
	ok      *obs.Counter
}

func (m *metrics) endpoint(name string) *endpointSeries {
	return &endpointSeries{name: name, latency: m.latency.With(name), ok: m.requests.With(name, "200")}
}

func (m *metrics) observe(ep *endpointSeries, code int, seconds float64) {
	ep.latency.Observe(seconds)
	m.latencyAll.Observe(seconds)
	if code == http.StatusOK {
		ep.ok.Inc()
	} else {
		m.requests.With(ep.name, strconv.Itoa(code)).Inc()
	}
	m.total.Add(1)
}

// tick refreshes the derived gauges once a second: QPS from the request
// counter delta, p50/p99 from the aggregate latency histogram.
func (m *metrics) tick() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			now := m.total.Load()
			m.qps.Set(float64(now - m.lastSeen))
			m.lastSeen = now
			if m.latencyAll.Count() > 0 {
				m.p50.Set(m.latencyAll.Quantile(0.50))
				m.p99.Set(m.latencyAll.Quantile(0.99))
			}
		}
	}
}

func (m *metrics) stop() {
	if m.stopOnce.CompareAndSwap(false, true) {
		close(m.stopCh)
	}
}

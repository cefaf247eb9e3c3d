package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"peerlearn/internal/matchmaker"
	"peerlearn/internal/metrics"
)

// HTTPMetrics holds the serving-layer instruments the observability
// middleware records into.
type HTTPMetrics struct {
	// Requests counts finished requests by route template, method
	// (non-standard methods as "other"), and status code.
	Requests *metrics.CounterVec
	// Duration is the per-route latency histogram, in seconds.
	Duration *metrics.HistogramVec
	// InFlight gauges requests currently being served.
	InFlight *metrics.Gauge
	// Panics counts handler panics recovered by the middleware.
	Panics *metrics.Counter
}

// NewHTTPMetrics registers the serving-layer metric families on reg.
func NewHTTPMetrics(reg *metrics.Registry) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: reg.CounterVec("peerlearn_http_requests_total",
			"Requests served, by route template, method, and status code.",
			"route", "method", "code"),
		Duration: reg.HistogramVec("peerlearn_http_request_duration_seconds",
			"Request latency in seconds, by route template.", "route"),
		InFlight: reg.Gauge("peerlearn_http_in_flight_requests",
			"Requests currently being served."),
		Panics: reg.Counter("peerlearn_http_panics_total",
			"Handler panics recovered into 500 responses."),
	}
}

// Clock is the time source the middleware stamps requests with. The
// production handler uses the wall clock; deterministic simulation
// tests (internal/simtest) inject a virtual clock so latency metrics
// and logs are reproducible from a seed.
type Clock interface {
	Now() time.Time
}

// wallClock is the production Clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Options configures the full production handler assembled by New.
type Options struct {
	// Registry receives the serving and matchmaker metrics; nil creates
	// a private registry (still exposed at /metrics).
	Registry *metrics.Registry
	// Logger receives request and panic logs; nil uses slog.Default().
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Clock supplies request timestamps; nil uses the wall clock.
	Clock Clock
	// RequestID generates ids for requests that arrive without an
	// X-Request-Id header; nil uses a crypto/rand generator. Injecting a
	// sequential generator makes logs reproducible in simulation.
	RequestID func() string
}

// New assembles the production handler: the stateless and session APIs
// under the observability middleware, the metrics exposition at
// /metrics, and (optionally) the pprof handlers. The store's sessions
// report matchmaker metrics into the same registry.
func New(store *SessionStore, opts Options) http.Handler {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	store.SetMetrics(matchmaker.NewMetrics(reg))
	clock := opts.Clock
	if clock == nil {
		clock = wallClock{}
	}
	newID := opts.RequestID
	if newID == nil {
		newID = newRequestID
	}

	mux := http.NewServeMux()
	mux.Handle("/", withObservability(NewSessionHandler(store), NewHTTPMetrics(reg), logger, clock, newID))
	// The exposition endpoint stays outside the middleware so scrape
	// traffic does not skew the request metrics it reports.
	mux.Handle("/metrics", reg.Handler())
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// requestIDKey is the context key RequestID reads.
type requestIDKey struct{}

// RequestID returns the request id the observability middleware
// attached to the context, or "" outside the middleware.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID returns a 16-hex-char random id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand does not fail on supported platforms; a fixed id
		// beats failing the request over telemetry.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status so the middleware can
// label metrics and logs, and whether anything was written so panic
// recovery knows if a 500 envelope can still be sent.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush lets streaming handlers keep working through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.wrote {
		return w.code
	}
	return http.StatusOK
}

// RouteLabel maps a request path to a bounded-cardinality route
// template for metric labels; unknown paths collapse into "other" so a
// path-scanning client cannot grow the label space. Exported so load
// harnesses can key client-side request counts by the same templates
// the server's metrics use.
func RouteLabel(path string) string {
	switch path {
	case "/healthz", "/metrics", "/v1/algorithms", "/v1/group", "/v1/simulate", "/v1/solve", "/v1/sessions":
		return path
	}
	if rest, ok := strings.CutPrefix(path, "/v1/sessions/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch action := rest[i+1:]; action {
			case "join", "leave", "round":
				return "/v1/sessions/{id}/" + action
			}
			return "/v1/sessions/{id}/other"
		}
		return "/v1/sessions/{id}"
	}
	return "other"
}

// methodLabel bounds the method label the way RouteLabel bounds the
// route: methods outside the standard set collapse into "other", so a
// client choosing arbitrary methods cannot grow the label space.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
		return method
	}
	return "other"
}

// WithObservability wraps next with the serving middleware stack:
// request-ID injection (X-Request-Id is honored when the caller sends
// one, generated otherwise, and always echoed on the response),
// structured request logging, an in-flight gauge, per-route
// latency/status metrics, and panic recovery — a panicking handler
// yields a 500 JSON error envelope instead of a dropped connection.
func WithObservability(next http.Handler, m *HTTPMetrics, logger *slog.Logger) http.Handler {
	return withObservability(next, m, logger, wallClock{}, newRequestID)
}

// withObservability is WithObservability with the time source and
// request-id generator injectable for deterministic simulation.
func withObservability(next http.Handler, m *HTTPMetrics, logger *slog.Logger, clock Clock, newID func() string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := clock.Now()
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = newID()
		}
		w.Header().Set("X-Request-Id", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		route := RouteLabel(r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}

		m.InFlight.Inc()
		defer func() {
			m.InFlight.Dec()
			if p := recover(); p != nil {
				if err, isAbort := p.(error); isAbort && errors.Is(err, http.ErrAbortHandler) {
					// The sentinel net/http expects for deliberate
					// aborts; let it through.
					panic(p) //peerlint:allow panicfree — re-raising http.ErrAbortHandler per net/http contract
				}
				m.Panics.Inc()
				logger.Error("panic recovered",
					"request_id", rid, "route", route, "method", r.Method,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, errors.New("internal server error"))
				}
			}
			elapsed := clock.Now().Sub(start)
			status := sw.status()
			m.Requests.With(route, methodLabel(r.Method), strconv.Itoa(status)).Inc()
			m.Duration.With(route).Observe(elapsed.Seconds())
			logger.Info("request",
				"request_id", rid, "method", r.Method, "path", r.URL.Path,
				"route", route, "status", status, "duration", elapsed)
		}()
		next.ServeHTTP(sw, r)
	})
}

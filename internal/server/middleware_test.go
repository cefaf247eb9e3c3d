package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"peerlearn/internal/metrics"
)

// discardLogger keeps test output quiet.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewHTTPMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	h := WithObservability(mux, m, discardLogger())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response is not the JSON envelope: %q", rec.Body.String())
	}
	if body.Error != "internal server error" {
		t.Fatalf("envelope error = %q", body.Error)
	}
	if body.Error == "kaboom" || strings.Contains(rec.Body.String(), "kaboom") {
		t.Fatal("panic value leaked to the client")
	}
	if m.Panics.Value() != 1 {
		t.Fatalf("panic counter = %d, want 1", m.Panics.Value())
	}
	if got := m.Requests.With("other", http.MethodGet, "500").Value(); got != 1 {
		t.Fatalf("500 request counter = %d, want 1", got)
	}
	if m.InFlight.Value() != 0 {
		t.Fatalf("in-flight gauge = %d after request, want 0", m.InFlight.Value())
	}
}

func TestMiddlewareRequestID(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewHTTPMetrics(reg)
	var seen string
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.WriteHeader(http.StatusNoContent)
	})
	h := WithObservability(mux, m, discardLogger())

	// A caller-supplied id is propagated to the handler and echoed.
	req := httptest.NewRequest(http.MethodGet, "/ok", nil)
	req.Header.Set("X-Request-Id", "caller-id-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Header().Get("X-Request-Id") != "caller-id-1" {
		t.Fatalf("echoed id = %q, want caller-id-1", rec.Header().Get("X-Request-Id"))
	}
	if seen != "caller-id-1" {
		t.Fatalf("handler saw id %q, want caller-id-1", seen)
	}

	// Without one, the middleware generates a 16-hex-char id.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/ok", nil))
	gen := rec2.Header().Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gen) {
		t.Fatalf("generated id = %q, want 16 hex chars", gen)
	}
	if seen != gen {
		t.Fatalf("handler saw id %q, response says %q", seen, gen)
	}
}

func TestRouteLabel(t *testing.T) {
	for path, want := range map[string]string{
		"/healthz":             "/healthz",
		"/v1/group":            "/v1/group",
		"/v1/simulate":         "/v1/simulate",
		"/v1/solve":            "/v1/solve",
		"/v1/algorithms":       "/v1/algorithms",
		"/v1/sessions":         "/v1/sessions",
		"/v1/sessions/17":      "/v1/sessions/{id}",
		"/v1/sessions/17/join": "/v1/sessions/{id}/join",
		"/v1/sessions/9/round": "/v1/sessions/{id}/round",
		"/v1/sessions/9/hack":  "/v1/sessions/{id}/other",
		"/v2/whatever":         "other",
		"/../../etc/passwd":    "other",
	} {
		if got := RouteLabel(path); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMetricsExposition drives a known request sequence through the
// full production handler and checks /metrics reports it in valid
// exposition format.
func TestMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	h := New(NewSessionStore(), Options{Registry: reg, Logger: discardLogger()})

	// 2 good groupings, 1 bad request, 1 health check.
	for i := 0; i < 2; i++ {
		rec := post(t, h, "/v1/group", GroupRequest{Skills: []float64{1, 2, 3, 4}, K: 2})
		if rec.Code != http.StatusOK {
			t.Fatalf("group status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if rec := post(t, h, "/v1/group", GroupRequest{K: 2}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad group status %d", rec.Code)
	}
	recH := httptest.NewRecorder()
	h.ServeHTTP(recH, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if recH.Code != http.StatusOK {
		t.Fatalf("healthz status %d", recH.Code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	out := rec.Body.String()

	for _, want := range []string{
		`peerlearn_http_requests_total{code="200",method="POST",route="/v1/group"} 2`,
		`peerlearn_http_requests_total{code="400",method="POST",route="/v1/group"} 1`,
		`peerlearn_http_requests_total{code="200",method="GET",route="/healthz"} 1`,
		`peerlearn_http_in_flight_requests 0`,
		`peerlearn_http_request_duration_seconds_count{route="/v1/group"} 3`,
		`peerlearn_http_request_duration_seconds_bucket{le="+Inf",route="/healthz"} 1`,
		`peerlearn_matchmaker_rounds_total 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every line must parse as a comment or a sample.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$`)
	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !sample.MatchString(line) && !comment.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
}

// The session API reports matchmaker round metrics through the shared
// registry.
func TestMatchmakerMetricsFlowThroughHandler(t *testing.T) {
	reg := metrics.NewRegistry()
	h := New(NewSessionStore(), Options{Registry: reg, Logger: discardLogger()})

	var created SessionStatus
	if code := doJSON(t, h, http.MethodPost, "/v1/sessions",
		CreateSessionRequest{GroupSize: 2}, &created); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	base := "/v1/sessions/" + strconv.FormatInt(created.ID, 10)
	for _, skill := range []float64{0.2, 0.4, 0.6} {
		if code := doJSON(t, h, http.MethodPost, base+"/join", JoinRequest{Skill: skill}, nil); code != http.StatusOK {
			t.Fatalf("join status %d", code)
		}
	}
	if code := doJSON(t, h, http.MethodPost, base+"/round", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("round status %d", code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		"peerlearn_matchmaker_rounds_total 1",
		"peerlearn_matchmaker_participants_seated_total 2",
		"peerlearn_matchmaker_participants_sat_out_total 1",
		"peerlearn_matchmaker_round_gain_count 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPprofGating(t *testing.T) {
	on := New(NewSessionStore(), Options{Logger: discardLogger(), Pprof: true})
	off := New(NewSessionStore(), Options{Logger: discardLogger()})

	rec := httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof on: status %d", rec.Code)
	}
	rec2 := httptest.NewRecorder()
	off.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec2.Code == http.StatusOK {
		t.Fatalf("pprof off: status %d, want non-200", rec2.Code)
	}
}

// TestHealthzP99Resolution checks the duration histogram resolves a
// microsecond-scale request: with an injected clock that advances
// 20µs across the request, the registry's /healthz p99 lies within the
// histogram's 3.1% bucket width below 20µs.
func TestHealthzP99Resolution(t *testing.T) {
	reg := metrics.NewRegistry()
	h := New(NewSessionStore(), Options{
		Registry: reg,
		Logger:   discardLogger(),
		Clock:    &tickClock{t: time.Date(2021, time.April, 19, 0, 0, 0, 0, time.UTC), step: 20 * time.Microsecond},
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	const want = 20e-6
	got := NewHTTPMetrics(reg).Duration.With("/healthz").Quantile(0.99)
	if got > want || got < want*(1-1.0/32) {
		t.Errorf("/healthz p99 = %gs, want within 3.1%% below %gs", got, want)
	}
}

// TestMethodLabelBounded checks a client choosing arbitrary methods
// cannot grow the request counter's series: unknown methods collapse
// into "other", like unknown paths into the "other" route.
func TestMethodLabelBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	h := New(NewSessionStore(), Options{Registry: reg, Logger: discardLogger()})
	for i := 0; i < 50; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("M"+strconv.Itoa(i), "/healthz", nil))
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))

	var b strings.Builder
	if err := reg.Write(&b); err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "peerlearn_http_requests_total{") {
			series = append(series, line)
		}
	}
	if len(series) != 2 {
		t.Fatalf("%d request series after 50 distinct methods, want 2:\n%s", len(series), strings.Join(series, "\n"))
	}
	if !strings.Contains(b.String(), `method="other",route="/healthz"} 50`) || !strings.Contains(b.String(), `method="GET",route="/healthz"} 1`) {
		t.Errorf("method labels not collapsed:\n%s", strings.Join(series, "\n"))
	}
}

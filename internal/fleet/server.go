package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dorado"
	"dorado/internal/obs"
	"dorado/internal/obs/prof"
	"dorado/internal/store"
)

// Server is the HTTP/JSON face of a Manager — the handler cmd/doradod
// serves. Every session operation maps to one route; every error is the
// uniform ErrorEnvelope JSON with the sentinel-mapped status code
// (ErrOverloaded → 429, ErrDraining → 503, ErrNotFound → 404,
// ErrTooManySessions → 507, ErrNoMetrics/ErrBusy/ErrNoStore → 409, bad
// input → 400). Every request gets a request id ("r1", "r2", ...)
// threaded through its context, so the access log and the manager's
// per-operation log correlate (see RequestID).
//
// Routes (all JSON unless noted):
//
//	POST   /v1/sessions               create a session {"language":"mesa","metrics":true,
//	                                  "devices":[{"name":"disk","start":"disk"}]} (see DeviceSpec),
//	                                  or fork one from a stored snapshot {"from":"<hash>"}
//	GET    /v1/sessions               list sessions
//	GET    /v1/sessions/{id}          read architectural state
//	DELETE /v1/sessions/{id}          destroy the session
//	POST   /v1/sessions/{id}/microcode  {"text": "...", "start": "label"}
//	POST   /v1/sessions/{id}/boot       {"source": "..."} (compile + boot)
//	POST   /v1/sessions/{id}/runs       submit an async run {"cycles": N} → 202 + run id
//	GET    /v1/sessions/{id}/runs       list the session's retained runs
//	GET    /v1/sessions/{id}/runs/{rid} poll one run's status/result
//	POST   /v1/sessions/{id}/park       snapshot + evict now; returns the store hash
//	GET    /v1/sessions/{id}/snapshot   machine snapshot (octet-stream)
//	PUT    /v1/sessions/{id}/snapshot   restore a snapshot (octet-stream)
//	GET    /v1/snapshots/{hash}         read a stored snapshot blob (octet-stream)
//	GET    /v1/store                  durable-store stats (recipe/section
//	                                  counts and bytes, dedupe and GC counters)
//	POST   /v1/store/gc               sweep the store now; optional body
//	                                  {"max_age_ms": N} overrides the configured
//	                                  GC age threshold for this sweep
//	GET    /v1/sessions/{id}/trace      Chrome trace_event export (metrics sessions)
//	GET    /v1/sessions/{id}/obs        observability summary (metrics sessions)
//	GET    /v1/sessions/{id}/profile    microarchitectural profile (profile sessions):
//	                                    gzipped pprof by default (go tool pprof opens the
//	                                    URL directly), ?format=json for the symbolized
//	                                    JSON document with superblock abort accounting
//	GET    /v1/profile                  fleet-wide merged profile (pprof, ?format=json)
//	GET    /v1/sessions/{id}/events     live stats stream (Server-Sent Events; run
//	                                    completions arrive as "run" events)
//	POST   /v1/drain                  drain the manager (graceful shutdown)
//	GET    /healthz                   liveness JSON (503 while draining)
//	GET    /metrics                   Prometheus text exposition
type Server struct {
	mgr *Manager
	mux *http.ServeMux
	// DrainTimeout bounds the /v1/drain request (default 30s).
	DrainTimeout time.Duration
	// eventWriteTimeout bounds each event-stream write; tests shorten it.
	eventWriteTimeout time.Duration
	// Logger, when set, receives one structured record per request (request
	// id, method, path, status, duration). NewServer seeds it from the
	// manager's Config.Logger; nil disables access logging.
	Logger *slog.Logger

	reqSeq atomic.Uint64
}

// ctxKey is unexported so only this package can store request ids.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the request id the server middleware stored in ctx, or
// "" when ctx carries none (direct Manager calls, tests). The manager's
// per-operation log attaches it so one slow HTTP request can be followed
// through submit, queue wait, and execution.
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter records the status code for the access log. Unwrap exposes
// the underlying writer so http.NewResponseController reaches Flush — the
// SSE stream depends on it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// maxSnapshotBody bounds restore uploads; a full machine snapshot is a few
// hundred KiB, so 64 MiB is generous without being a memory hazard.
const maxSnapshotBody = 64 << 20

// NewServer wraps a Manager in its HTTP API.
func NewServer(m *Manager) *Server {
	s := &Server{mgr: m, mux: http.NewServeMux(), DrainTimeout: 30 * time.Second, eventWriteTimeout: eventWriteTimeout, Logger: m.cfg.Logger}
	s.mux.HandleFunc("POST /v1/sessions", s.createSession)
	s.mux.HandleFunc("GET /v1/sessions", s.listSessions)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.readState)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.destroySession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/microcode", s.loadMicrocode)
	s.mux.HandleFunc("POST /v1/sessions/{id}/boot", s.bootSource)
	s.mux.HandleFunc("POST /v1/sessions/{id}/runs", s.startRun)
	s.mux.HandleFunc("GET /v1/sessions/{id}/runs", s.listRuns)
	s.mux.HandleFunc("GET /v1/sessions/{id}/runs/{rid}", s.getRun)
	s.mux.HandleFunc("POST /v1/sessions/{id}/park", s.parkSession)
	s.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.getSnapshot)
	s.mux.HandleFunc("PUT /v1/sessions/{id}/snapshot", s.putSnapshot)
	s.mux.HandleFunc("GET /v1/snapshots/{hash}", s.getStoredSnapshot)
	s.mux.HandleFunc("GET /v1/store", s.storeStats)
	s.mux.HandleFunc("POST /v1/store/gc", s.storeGC)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.traceJSON)
	s.mux.HandleFunc("GET /v1/sessions/{id}/obs", s.obsSummary)
	s.mux.HandleFunc("GET /v1/sessions/{id}/profile", s.sessionProfile)
	s.mux.HandleFunc("GET /v1/profile", s.fleetProfile)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.streamEvents)
	s.mux.HandleFunc("POST /v1/drain", s.drain)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	obs.RegisterMetrics(s.mux, m.MetricsSnapshot)
	return s
}

// Mux exposes the underlying mux so callers (cmd/doradod) can mount
// additional routes — the expvar/pprof debug endpoints — beside the API.
// Handlers reached through the mux directly bypass the request-id and
// access-log middleware; serve through the Server to get both.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// ServeHTTP implements http.Handler: it assigns the request id, serves
// through the mux, and emits the access-log record.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := "r" + strconv.FormatUint(s.reqSeq.Add(1), 10)
	r = r.WithContext(context.WithValue(r.Context(), requestIDKey, id))
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	if s.Logger != nil {
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.Logger.LogAttrs(r.Context(), slog.LevelInfo, "http request",
			slog.String("req", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Int64("us", time.Since(start).Microseconds()))
	}
}

// ErrorEnvelope is the uniform JSON error body every fleet endpoint
// returns: a stable machine-readable code, the human-readable error, and
// — when the failing route names a session — that session's residency,
// so a client distinguishing "404 because destroyed" from "409 because
// busy" never parses error strings.
type ErrorEnvelope struct {
	// Code is the stable classification: "overloaded", "draining",
	// "not_found", "too_many_sessions", "no_metrics", "no_profiler",
	// "busy", "no_store", "bad_request", "too_large", or "internal".
	Code string `json:"code"`
	// Error is the underlying error text.
	Error string `json:"error"`
	// SessionState reports the named session's residency at error time:
	// "live", "parked", "failed" (sticky revive error), or "unknown".
	// Omitted on routes that name no session.
	SessionState string `json:"session_state,omitempty"`
}

// errBadInput tags client-input errors (malformed JSON, unknown language,
// assembly failures) so writeError classifies them "bad_request"/400
// instead of "internal"/500.
var errBadInput = errors.New("bad request")

// classifyErr maps an error onto its envelope code and HTTP status.
func classifyErr(err error) (string, int) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrOverloaded):
		return "overloaded", http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return "draining", http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound), errors.Is(err, store.ErrNoBlob):
		return "not_found", http.StatusNotFound
	case errors.Is(err, ErrTooManySessions):
		return "too_many_sessions", http.StatusInsufficientStorage
	case errors.Is(err, ErrNoMetrics):
		return "no_metrics", http.StatusConflict
	case errors.Is(err, ErrNoProfiler):
		return "no_profiler", http.StatusConflict
	case errors.Is(err, ErrBusy):
		return "busy", http.StatusConflict
	case errors.Is(err, ErrNoStore):
		return "no_store", http.StatusConflict
	case errors.Is(err, errTooManyWatchers):
		return "too_many_watchers", http.StatusTooManyRequests
	case errors.As(err, &tooBig):
		return "too_large", http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadInput):
		return "bad_request", http.StatusBadRequest
	}
	return "internal", http.StatusInternalServerError
}

// writeError renders any handler error as the ErrorEnvelope with its
// mapped status. All fleet error responses funnel through here.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	code, status := classifyErr(err)
	env := ErrorEnvelope{Code: code, Error: err.Error()}
	if id := r.PathValue("id"); id != "" {
		env.SessionState = s.mgr.sessionState(id)
	}
	writeJSON(w, status, env)
}

// badRequest wraps a client-input error with the bad_request tag and
// renders it through the envelope.
func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	s.writeError(w, r, fmt.Errorf("%w: %w", errBadInput, err))
}

// sessionState classifies a session for the error envelope from its
// published view, so it takes no session lock.
func (m *Manager) sessionState(id string) string {
	s, ok := m.lookup(id)
	if !ok {
		return "unknown"
	}
	return s.published.Load().res.String()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client disconnects only
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<24))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// parseLanguage maps the wire name onto a dorado.Language; "" and "none"
// select a bare machine.
func parseLanguage(name string) (dorado.Language, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return dorado.None, nil
	case "mesa":
		return dorado.Mesa, nil
	case "bcpl":
		return dorado.BCPL, nil
	case "lisp":
		return dorado.Lisp, nil
	case "smalltalk":
		return dorado.Smalltalk, nil
	}
	return dorado.None, fmt.Errorf("unknown language %q", name)
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Language string `json:"language"`
		Metrics  bool   `json:"metrics"`
		// Profile attaches a microarchitectural profiler (Spec.Profile).
		Profile bool `json:"profile"`
		// Translation enables the superblock translator on the session's
		// machine — the usual companion of Profile, whose abort accounting
		// explains the translator's coverage.
		Translation bool         `json:"translation"`
		Devices     []DeviceSpec `json:"devices"`
		// Webhook is a URL run completions are POSTed to; its origin
		// must be in the server's allowlist (doradod -webhook-allow).
		Webhook string `json:"webhook"`
		// From forks the new session from a stored snapshot hash; the
		// blob's Spec sidecar supplies the machine description, so From is
		// exclusive with the other fields.
		From string `json:"from"`
	}
	if err := decodeJSON(r, &req); err != nil && err != io.EOF {
		s.badRequest(w, r, err)
		return
	}
	if req.From != "" {
		if req.Language != "" || req.Metrics || req.Profile || req.Translation || len(req.Devices) != 0 || req.Webhook != "" {
			s.badRequest(w, r, errors.New(`"from" forks a stored snapshot and takes no other fields`))
			return
		}
		id, err := s.mgr.CreateFrom(req.From)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id})
		return
	}
	if _, err := parseLanguage(req.Language); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if err := validateDevices(req.Devices); err != nil {
		s.badRequest(w, r, err)
		return
	}
	spec := Spec{Language: req.Language, Metrics: req.Metrics, Profile: req.Profile, Devices: req.Devices, Webhook: req.Webhook}
	if req.Translation {
		spec.Machine.Translation = dorado.Translation{Enable: true}
	}
	id, err := s.mgr.Create(spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) listSessions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.mgr.Sessions()})
}

func (s *Server) readState(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.ReadState(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) destroySession(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Destroy(r.PathValue("id")); err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"destroyed": true})
}

func (s *Server) loadMicrocode(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Text  string `json:"text"`
		Start string `json:"start"`
	}
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if req.Start == "" {
		req.Start = "start"
	}
	res, err := s.mgr.LoadMicrocode(r.Context(), r.PathValue("id"), req.Text, req.Start)
	if err != nil {
		if isFleetErr(err) {
			s.writeError(w, r, err)
		} else {
			s.badRequest(w, r, err) // assembly / placement / label errors
		}
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) bootSource(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Source string `json:"source"`
	}
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if err := s.mgr.BootSource(r.Context(), r.PathValue("id"), req.Source); err != nil {
		if isFleetErr(err) {
			s.writeError(w, r, err)
		} else {
			s.badRequest(w, r, err) // compile errors
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"booted": true})
}

// startRun submits an asynchronous run {"cycles": N} and answers 202
// Accepted with the queued run's view; the id in it is pollable
// immediately.
func (s *Server) startRun(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Cycles uint64 `json:"cycles"`
	}
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if req.Cycles == 0 {
		s.badRequest(w, r, errors.New("cycles must be positive"))
		return
	}
	v, err := s.mgr.SubmitRun(r.Context(), r.PathValue("id"), req.Cycles)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) listRuns(w http.ResponseWriter, r *http.Request) {
	runs, err := s.mgr.Runs(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
}

func (s *Server) getRun(w http.ResponseWriter, r *http.Request) {
	v, err := s.mgr.GetRun(r.PathValue("id"), r.PathValue("rid"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// parkSession snapshots and evicts the session right now (vs waiting for
// the idle janitor); with a store configured the response carries the
// durable snapshot's hash.
func (s *Server) parkSession(w http.ResponseWriter, r *http.Request) {
	res, err := s.mgr.Park(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// getStoredSnapshot serves a stored blob by content hash, without
// touching (or reviving) any session.
func (s *Server) getStoredSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.mgr.cfg.Store == nil {
		s.writeError(w, r, ErrNoStore)
		return
	}
	data, err := s.mgr.cfg.Store.Get(r.PathValue("hash"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // client disconnects only
}

func (s *Server) getSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := s.mgr.Snapshot(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // client disconnects only
}

func (s *Server) putSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, fmt.Errorf("snapshot exceeds %d bytes: %w", maxSnapshotBody, err))
			return
		}
		s.badRequest(w, r, err)
		return
	}
	if err := s.mgr.Restore(r.Context(), r.PathValue("id"), data); err != nil {
		if isFleetErr(err) {
			s.writeError(w, r, err)
		} else {
			s.badRequest(w, r, err) // malformed or mismatched snapshot
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"restored": true})
}

// storeStats serves GET /v1/store: the durable store's inventory and
// lifecycle counters (409 no_store without -store).
func (s *Server) storeStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.StoreStats()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// storeGC serves POST /v1/store/gc: run one GC sweep now. The optional
// body {"max_age_ms": N} overrides the configured age threshold for this
// sweep only (0 reclaims every unreferenced snapshot immediately — the
// "disk full" recovery lever, see docs/OPERATIONS.md).
func (s *Server) storeGC(w http.ResponseWriter, r *http.Request) {
	var req struct {
		MaxAgeMS *int64 `json:"max_age_ms"`
	}
	if err := decodeJSON(r, &req); err != nil && err != io.EOF {
		s.badRequest(w, r, err)
		return
	}
	maxAge := -1 * time.Millisecond // negative: use the configured policy
	if req.MaxAgeMS != nil {
		if *req.MaxAgeMS < 0 {
			s.badRequest(w, r, errors.New("max_age_ms must be non-negative"))
			return
		}
		maxAge = time.Duration(*req.MaxAgeMS) * time.Millisecond
	}
	res, err := s.mgr.GCStore(maxAge)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) drain(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.DrainTimeout)
	defer cancel()
	if err := s.mgr.Drain(ctx); err != nil {
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"drained": true})
}

func (s *Server) traceJSON(w http.ResponseWriter, r *http.Request) {
	data, err := s.mgr.TraceJSON(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client disconnects only
}

func (s *Server) obsSummary(w http.ResponseWriter, r *http.Request) {
	res, err := s.mgr.ObsSummary(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// sessionProfile serves one session's microarchitectural profile: gzipped
// pprof protobuf by default (so `go tool pprof <url>` works), the
// symbolized JSON document with ?format=json.
func (s *Server) sessionProfile(w http.ResponseWriter, r *http.Request) {
	res, err := s.mgr.Profile(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeProfile(w, r, res, res.Profile)
}

// fleetProfile serves the merged fleet-wide profile in the same two
// formats as sessionProfile.
func (s *Server) fleetProfile(w http.ResponseWriter, r *http.Request) {
	res, err := s.mgr.FleetProfile(r.Context())
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeProfile(w, r, res, res.Profile)
}

// writeProfile renders a profile response: v as JSON when format=json, the
// bare profile as gzipped pprof otherwise.
func (s *Server) writeProfile(w http.ResponseWriter, r *http.Request, v any, p *prof.Profile) {
	switch format := r.URL.Query().Get("format"); format {
	case "json":
		writeJSON(w, http.StatusOK, v)
	case "", "pprof":
		w.Header().Set("Content-Type", "application/octet-stream")
		prof.WritePprof(w, p) //nolint:errcheck // client disconnects only
	default:
		s.badRequest(w, r, fmt.Errorf("unknown profile format %q (want pprof or json)", format))
	}
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	h := s.mgr.Health()
	code := http.StatusOK
	if h.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// isFleetErr reports whether classifyErr gives err a code of its own,
// whose status should win over the generic 400 for user input.
func isFleetErr(err error) bool {
	code, _ := classifyErr(err)
	return code != "internal" && code != "bad_request"
}

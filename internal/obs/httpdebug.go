package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is the cmd tools' observability endpoint: expvar
// (/debug/vars), pprof (/debug/pprof/), and a Prometheus scrape target
// (/metrics) whose content comes from a snapshot function, all on one
// listener. It stands in for the Dorado's console microcomputer port: an
// out-of-band window onto the running machine.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// RegisterDebug mounts the out-of-band inspection endpoints — expvar
// (/debug/vars) and pprof (/debug/pprof/...) — on an existing mux, so a
// server with its own routes (cmd/doradod) shares the exporters ServeDebug
// uses.
func RegisterDebug(mux *http.ServeMux) {
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// RegisterMetrics mounts a Prometheus scrape target on /metrics. The
// snapshot function is called once per scrape and must be safe to run
// concurrently with the simulation; a nil snapshot (or nil result) renders
// no families.
func RegisterMetrics(mux *http.ServeMux, snapshot func() *Snapshot) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if snapshot == nil {
			return
		}
		if s := snapshot(); s != nil {
			WritePrometheus(w, s) //nolint:errcheck // client disconnects only
		}
	})
}

// ServeDebug starts a debug server on addr (e.g. "localhost:6060").
// snapshot is the /metrics source, called once per scrape (see
// RegisterMetrics); nil reports no families. The server runs until Close.
func ServeDebug(addr string, snapshot func() *Snapshot) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	RegisterDebug(mux)
	RegisterMetrics(mux, snapshot)

	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go d.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return d, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the listener down.
func (d *DebugServer) Close() error { return d.srv.Close() }

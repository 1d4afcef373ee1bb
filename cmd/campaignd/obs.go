package main

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// newLogger builds the structured logger both modes narrate through:
// slog text lines without timestamps, so test assertions and diffs of two
// runs stay stable. Every record is one Write, so a syncWriter underneath
// keeps concurrent sweeps' lines whole.
func newLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// startDebugServer serves GET /metrics plus net/http/pprof on a side
// address — the -debug-addr surface, deliberately separate from the
// coordinator API so profiling a busy fleet never competes with lease
// traffic (and so `campaignd work`, which serves no API, has a scrape
// target too). It reports the bound address (resolving a :0 port) and a
// stop that closes the listener.
func startDebugServer(addr string, reg *obs.Registry) (boundAddr string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// observe sets up one process's instrumentation, the same in both modes:
// the metrics registry (reg, or a new one), the span journal (tracer, or
// a new one when tracePath is set) and the -debug-addr side server. done
// stops the server and writes the trace; call it on exit.
func observe(reg *obs.Registry, tracer *obs.Tracer, debugAddr, tracePath string, log *slog.Logger) (_ *obs.Registry, _ *obs.Tracer, done func(), err error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tracer == nil && tracePath != "" {
		tracer = obs.NewTracer()
	}
	stopDebug := func() {}
	if debugAddr != "" {
		var addr string
		if addr, stopDebug, err = startDebugServer(debugAddr, reg); err != nil {
			return nil, nil, nil, err
		}
		log.Info("debug server listening", "addr", addr)
	}
	return reg, tracer, func() {
		stopDebug()
		if tracePath != "" {
			if err := tracer.WriteFile(tracePath); err != nil {
				log.Warn("trace write failed", "path", tracePath, "err", err)
			}
		}
	}, nil
}

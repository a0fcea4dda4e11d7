package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler serving reg's text exposition at
// /metrics and the net/http/pprof endpoints under /debug/pprof/ —
// one mux covers both scraping and live profiling, per the ROADMAP's
// "observe before you optimize" rule.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte("ozz observability: /metrics, /debug/pprof/\n"))
	})
	return mux
}

// readHeaderTimeout bounds how long a client of Serve may take to send its
// request header (a variable so tests can shorten it).
var readHeaderTimeout = 10 * time.Second

// Serve starts an HTTP server for reg on addr (e.g. "127.0.0.1:9100";
// ":0" picks a free port) in a background goroutine. It returns the bound
// address and a shutdown func. The server lives until stop is called or
// the process exits; campaign code treats it as fire-and-forget.
func Serve(addr string, reg *Registry) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	// A client that stalls mid-header or parks an idle keep-alive
	// connection is disconnected rather than holding a socket and a
	// goroutine for the life of the campaign. There is deliberately no
	// ReadTimeout or WriteTimeout: /debug/pprof/profile and /trace stream
	// for the ?seconds= the caller asks for, and net/http/pprof refuses
	// any duration at or past the server's WriteTimeout.
	srv := &http.Server{
		Handler:           Handler(reg),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

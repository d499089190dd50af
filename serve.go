package zaatar

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"time"

	"zaatar/internal/obs"
	"zaatar/internal/store"
	"zaatar/internal/transport"
)

// serverOptions wraps the service configuration so ServerOption's
// signature stays free of internal types.
type serverOptions struct {
	svc      transport.ServiceOptions
	storeDir string
}

// ServerOption configures Serve.
type ServerOption func(*serverOptions)

// WithServerWorkers sets the service-wide kernel pool: the total prover
// parallelism shared by every admitted session (each session gets an equal
// share). Defaults to runtime.NumCPU().
func WithServerWorkers(n int) ServerOption {
	return func(o *serverOptions) { o.svc.Workers = n }
}

// WithMaxSessions bounds how many sessions may compute concurrently; the
// rest wait in admission. An idle keep-alive connection does not hold a
// slot. Defaults to 16.
func WithMaxSessions(n int) ServerOption {
	return func(o *serverOptions) { o.svc.MaxSessions = n }
}

// WithMaxBatch bounds the number of instances a client may submit per
// batch. Defaults to 1<<16.
func WithMaxBatch(n int) ServerOption {
	return func(o *serverOptions) { o.svc.MaxBatch = n }
}

// WithServerIOTimeout sets the per-message read/write deadline on every
// connection; a peer stalling longer mid-protocol fails the session.
func WithServerIOTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.svc.IOTimeout = d }
}

// WithMaxConns bounds how many connections the server keeps open at once,
// including idle keep-alive connections (which hold no admission slot but
// still pin a goroutine and their program); excess connections are refused
// at accept. Defaults to 16× the MaxSessions value; negative means
// unlimited.
func WithMaxConns(n int) ServerOption {
	return func(o *serverOptions) { o.svc.MaxConns = n }
}

// WithIdleTimeout bounds how long a kept-alive connection may sit idle
// between batches before the server closes it (a clean end, not a session
// error). Defaults to 2 minutes; negative disables the bound.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.svc.IdleTimeout = d }
}

// WithProgramCacheSize sets how many compiled programs (with their
// prover-side precomputations) the service keeps in its cross-session LRU.
// Defaults to 32.
func WithProgramCacheSize(n int) ServerOption {
	return func(o *serverOptions) { o.svc.CacheSize = n }
}

// WithServerBackends restricts which proof backends the service negotiates
// (a client's offer is matched against this list; see ErrNoCommonBackend in
// the wire protocol). By default every backend compiled into the build is
// available.
func WithServerBackends(names ...string) ServerOption {
	return func(o *serverOptions) { o.svc.Backends = names }
}

// WithServerMetrics directs the service's counters and spans (the
// transport.*, including transport.cache.* and transport.admission.*
// series) into r instead of the process-wide default registry.
func WithServerMetrics(r *obs.Registry) ServerOption {
	return func(o *serverOptions) { o.svc.Obs = r }
}

// WithServerLogger installs a structured logger on the service: one record
// per session event (negotiation, each batch served, session close)
// carrying the session id, negotiated backend, program hash, and — when the
// client's hello carries a trace — trace_id/span_id fields joinable against
// the exported Perfetto trace — plus a warning per connection refused at
// the MaxConns cap and per damaged or unwritable store bundle. Failed
// sessions log at error level, so a logger filtered to warnings and above
// sees only faults. By default the service is silent.
func WithServerLogger(l *slog.Logger) ServerOption {
	return func(o *serverOptions) { o.svc.Logger = l }
}

// WithStore persists compiled programs (with their prover-side
// precomputations) as content-addressed bundles under dir, keyed by
// source, field, and backend. A restarted server reloads a known program
// from disk instead of recompiling it, so a warm restart serves its first
// session without paying compilation or preprocessing; since clients name
// their program by hash, repeat clients then also skip uploading the
// source. The directory is created if missing; a corrupt or
// version-skewed bundle is treated as a cache miss (the program is
// recompiled and the bundle rewritten), never a failure. Disk traffic is
// reported under the transport.store.* metric series.
func WithStore(dir string) ServerOption {
	return func(o *serverOptions) { o.storeDir = dir }
}

// WithMaxSourceBytes bounds the program source a client may upload, in
// bytes. Oversized sessions fail with a hello-phase error the client sees as a
// RemoteError. Defaults to 1 MiB.
func WithMaxSourceBytes(n int) ServerOption {
	return func(o *serverOptions) { o.svc.MaxSourceBytes = n }
}

// WithSLOWindow sets the rolling window over which the service aggregates
// its SLO gauges (transport.slo.requests, .error_rate, .p99_seconds).
// Defaults to one minute.
func WithSLOWindow(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.svc.SLOWindow = d }
}

// Serve runs a long-lived multi-tenant prover service on ln until ctx is
// cancelled (or ln fails), then drains in-flight sessions and returns.
// Compiled programs are cached across sessions in an LRU keyed by source,
// field, and protocol — a repeat session for the same program skips
// compilation — and a bounded admission semaphore shares the kernel pool
// fairly among concurrent sessions. The service speaks wire protocol 3:
// a client names its program by digest and uploads the source only when
// the server holds neither a cached nor a stored copy, then pushes any
// number of batches over the connection, reusing the program (each batch
// carries its own commitment key, which soundness keeps per-batch). A
// hello in any other dialect is refused. With WithStore, compiled programs
// additionally persist across server restarts.
func Serve(ctx context.Context, ln net.Listener, opts ...ServerOption) error {
	var o serverOptions
	for _, fn := range opts {
		fn(&o)
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir)
		if err != nil {
			return fmt.Errorf("zaatar: opening artifact store: %w", err)
		}
		o.svc.Store = st
	}
	return transport.NewService(o.svc).Serve(ctx, ln)
}

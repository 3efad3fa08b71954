package serve

import (
	"context"
	"fmt"
	"time"

	"voodoo/internal/diag"
	"voodoo/internal/metrics"
	"voodoo/internal/storage"
	"voodoo/internal/vector"
)

// This file is the server's lifecycle: the catalog it serves can be
// swapped atomically while queries run (SIGHUP hot reload), the process
// can drain gracefully (SIGTERM), and /healthz reports where in that life
// the server is — ready, degraded (some tables quarantined by storage
// integrity checks), or draining.

// Catalog returns the catalog currently being served. It changes across
// SwapCatalog calls; each request pins the pointer it loaded for its
// whole lifetime, so a swap never mixes two catalogs inside one query.
func (s *Server) Catalog() *storage.Catalog { return s.cat.Load() }

// SwapCatalog atomically replaces the served catalog — the hot-reload
// path. In-flight queries finish against the catalog they started with;
// new requests see the replacement immediately, and the reload counter
// moves. The plans prepared against the replaced catalog live in its memo,
// so they go when it does.
func (s *Server) SwapCatalog(cat *storage.Catalog) {
	if cat == nil {
		return
	}
	if s.cat.Swap(cat) != cat {
		s.mReloads.Inc()
	}
}

// StartDraining flips the server into its terminal draining state: new
// queries are refused with 503 + Retry-After, and /healthz answers 503
// "draining" so load balancers stop routing here. In-flight queries are
// unaffected. Draining is one-way; call it when shutdown has begun.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Shutdown drains the server: it stops admitting queries, waits for the
// in-flight ones to finish, and — if ctx expires first — cancels them
// through the per-request context plumbing and waits (bounded) for the
// cancellations to unwind. A nil return means the server is idle.
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDraining()
	if s.awaitIdle(ctx) == nil {
		return nil
	}
	// The polite wait expired: cancel every in-flight query at its next
	// cooperative checkpoint and give the unwinding a moment.
	s.baseCancel()
	forceCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.awaitIdle(forceCtx); err != nil {
		return fmt.Errorf("serve: %d queries still in flight after forced cancellation", s.inflight.Load())
	}
	return nil
}

// awaitIdle polls until no request is anywhere inside handleQuery.
func (s *Server) awaitIdle(ctx context.Context) error {
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Health snapshots the server's lifecycle state for /healthz, including
// the binary's build identity and — when objectives are configured — the
// per-route error-budget state.
func (s *Server) Health() diag.Health {
	cat := s.cat.Load()
	h := diag.Health{
		State: "ready", ActiveQueries: s.qreg.ActiveCount(),
		Build: metrics.Build(), SLO: s.slos.Snapshot(),
	}
	for _, name := range cat.Quarantined() {
		h.State = "degraded"
		h.Quarantined = append(h.Quarantined, diag.QuarantinedTable{
			Table: name, Error: cat.QuarantineErr(name).Error(),
		})
	}
	if s.draining.Load() {
		h.State = "draining"
	}
	return h
}

// PoolStats snapshots the server's buffer pool. The chaos harness gates on
// LiveArenas == 0 after a drain.
func (s *Server) PoolStats() vector.PoolStats { return s.pool.Stats() }

package netupdate

import (
	"ipdelta/internal/obs"
)

// serverMetrics holds the pre-resolved handles of a Server (DESIGN.md
// §9). Resolved once in NewServer so the per-session path does no
// registry lookups.
type serverMetrics struct {
	sessions        *obs.Counter // sessions admitted (excludes budget rejects)
	sessionFailures *obs.Counter
	upToDate        *obs.Counter
	deltaSessions   *obs.Counter
	fullSessions    *obs.Counter
	unknownVersion  *obs.Counter
	budgetRejects   *obs.Counter
	bytesServed     *obs.Counter
	cacheHits       *obs.Counter // delta lookups served from the cache
	cacheMisses     *obs.Counter // delta lookups that started a build
	buildWaits      *obs.Counter // delta lookups that joined an in-flight build
	cachedDeltas    *obs.Gauge
	muxConns        *obs.Gauge // live v2 multiplexed connections
	muxStreams      *obs.Gauge // live v2 update streams across all conns

	sessionStage  obs.Stage // whole-session wall time
	msgReadStage  obs.Stage // one framed protocol read
	msgWriteStage obs.Stage // one framed protocol write (incl. flush)
	buildStage    obs.Stage // one delta build: diff, convert and encode

	buildWaited func(int) // the delta cache's wait hook; nil when unobserved
}

var unobservedServer serverMetrics // nil handles, zero stages: calls do nothing

func resolveServerMetrics(r *obs.Registry) *serverMetrics {
	if r == nil {
		return &unobservedServer
	}
	m := &serverMetrics{
		sessions:        r.Counter("ipdelta_server_sessions_total"),
		sessionFailures: r.Counter("ipdelta_server_session_failures_total"),
		upToDate:        r.Counter("ipdelta_server_up_to_date_total"),
		deltaSessions:   r.Counter("ipdelta_server_delta_sessions_total"),
		fullSessions:    r.Counter("ipdelta_server_full_sessions_total"),
		unknownVersion:  r.Counter("ipdelta_server_unknown_version_total"),
		budgetRejects:   r.Counter("ipdelta_server_budget_rejects_total"),
		bytesServed:     r.Counter("ipdelta_server_bytes_served_total"),
		cacheHits:       r.Counter("ipdelta_server_delta_cache_hits_total"),
		cacheMisses:     r.Counter("ipdelta_server_delta_cache_misses_total"),
		buildWaits:      r.Counter("ipdelta_server_build_waits_total"),
		cachedDeltas:    r.Gauge("ipdelta_server_cached_deltas"),
		muxConns:        r.Gauge("ipdelta_server_mux_conns"),
		muxStreams:      r.Gauge("ipdelta_server_mux_streams"),
		sessionStage:    r.Stage("ipdelta_server_session_nanos"),
		msgReadStage:    r.Stage("ipdelta_server_msg_read_nanos"),
		msgWriteStage:   r.Stage("ipdelta_server_msg_write_nanos"),
		buildStage:      r.Stage("ipdelta_server_build_nanos"),
	}
	m.buildWaited = func(int) { m.buildWaits.Inc() }
	return m
}

// clientMetrics holds the pre-resolved handles of a Client.
type clientMetrics struct {
	runs          *obs.Counter
	runFailures   *obs.Counter
	attempts      *obs.Counter
	retries       *obs.Counter
	degradations  *obs.Counter // delta path abandoned for the full-image rung
	upToDate      *obs.Counter
	fullTransfers *obs.Counter
	bytesReceived *obs.Counter

	attemptStage obs.Stage // one session attempt, dial included
}

var unobservedClient clientMetrics // nil handles, zero stage: calls do nothing

func resolveClientMetrics(r *obs.Registry) *clientMetrics {
	if r == nil {
		return &unobservedClient
	}
	return &clientMetrics{
		runs:          r.Counter("ipdelta_client_runs_total"),
		runFailures:   r.Counter("ipdelta_client_run_failures_total"),
		attempts:      r.Counter("ipdelta_client_attempts_total"),
		retries:       r.Counter("ipdelta_client_retries_total"),
		degradations:  r.Counter("ipdelta_client_degradations_total"),
		upToDate:      r.Counter("ipdelta_client_up_to_date_total"),
		fullTransfers: r.Counter("ipdelta_client_full_transfers_total"),
		bytesReceived: r.Counter("ipdelta_client_bytes_received_total"),
		attemptStage:  r.Stage("ipdelta_client_attempt_nanos"),
	}
}

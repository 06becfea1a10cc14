package netupdate

import (
	"context"
	"net"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/obs"
)

// TestServerMetricsTrackSessions runs one delta session and one up-to-date
// session against an observed server and checks the registry saw both.
func TestServerMetricsTrackSessions(t *testing.T) {
	history := makeHistory(3, 16<<10, 41)
	reg := obs.NewRegistry()
	s, err := NewServer(history, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}

	dev := deviceFor(t, history[0], 64<<10)
	if _, err := runSession(t, s, dev); err != nil {
		t.Fatal(err)
	}
	current := deviceFor(t, history[2], 64<<10)
	if _, err := runSession(t, s, current); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	checks := map[string]int64{
		"ipdelta_server_sessions_total":       2,
		"ipdelta_server_delta_sessions_total": 1,
		"ipdelta_server_up_to_date_total":     1,
	}
	for name, want := range checks {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Counter("ipdelta_server_bytes_served_total"); got != s.ServedBytes() || got == 0 {
		t.Errorf("bytes_served counter = %d, server reports %d", got, s.ServedBytes())
	}
	if got := snap.Gauges["ipdelta_server_cached_deltas"]; got < 1 {
		t.Errorf("cached_deltas gauge = %d, want >= 1", got)
	}
	if h := snap.Histograms["ipdelta_server_session_nanos"]; h.Count != 2 {
		t.Errorf("session_nanos count = %d, want 2", h.Count)
	}
	for _, name := range []string{"ipdelta_server_msg_read_nanos", "ipdelta_server_msg_write_nanos"} {
		if h := snap.Histograms[name]; h.Count == 0 {
			t.Errorf("%s recorded no observations", name)
		}
	}
	if got := snap.Counter("ipdelta_server_session_failures_total"); got != 0 {
		t.Errorf("session_failures = %d on a clean run", got)
	}
	// The default differ records into the server's registry: one diff
	// per delta build.
	builds := snap.Histograms["ipdelta_server_build_nanos"].Count
	if got := snap.Counter("ipdelta_diff_total"); builds != 1 || got != builds {
		t.Errorf("ipdelta_diff_total = %d over %d builds, want 1 each", got, builds)
	}
}

// TestServerMetricsCountBudgetRejects drives a client past the failure
// budget and checks the reject counter moves.
func TestServerMetricsCountBudgetRejects(t *testing.T) {
	history := makeHistory(2, 8<<10, 42)
	reg := obs.NewRegistry()
	s, err := NewServer(history, WithObserver(reg), WithFailureBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	// A device on a version the server has never seen fails its session
	// (runSession waits for the handler, so the counters are settled);
	// net.Pipe peers share one budget key, so the next connection from the
	// "same host" is turned away before the protocol starts.
	stranger := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 8 << 10, ChangeRate: 0, Seed: 503})
	for k := 0; k < 2; k++ {
		dev := deviceFor(t, stranger.Ref, 32<<10)
		if _, err := runSession(t, s, dev); err == nil {
			t.Fatal("stranger session succeeded")
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("ipdelta_server_session_failures_total"); got == 0 {
		t.Error("session_failures_total did not move")
	}
	if got := snap.Counter("ipdelta_server_budget_rejects_total"); got == 0 {
		t.Error("budget_rejects_total did not move")
	}
	if got := snap.Counter("ipdelta_server_unknown_version_total"); got == 0 {
		t.Error("unknown_version_total did not move")
	}
}

// TestClientMetricsRetryAndDegrade reuses the consecutive-delta-failure
// scenario with an observer attached: two doomed delta attempts, then a
// clean full-image transfer. The registry must show the retries and
// exactly one degradation.
func TestClientMetricsRetryAndDegrade(t *testing.T) {
	history := makeHistory(2, 32<<10, 43)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[0], 64<<10)
	dial := pipeDial(s, func(attempt int, c net.Conn) net.Conn {
		if attempt <= 2 {
			return NewFlakyConn(c, FaultProfile{Seed: 9, DropAfterBytes: 512})
		}
		return c
	})
	reg := obs.NewRegistry()
	ru := NewClient(
		WithMaxAttempts(6), WithFullFallbackAfter(2), WithSleep(noBackoff), WithObserver(reg),
	)
	rep, err := ru.Run(context.Background(), dial, dev)
	if err != nil {
		t.Fatalf("run: %v (log: %v)", err, rep.FailureLog)
	}
	if !rep.FellBack {
		t.Fatalf("report = %+v, want degradation", rep)
	}

	snap := reg.Snapshot()
	checks := map[string]int64{
		"ipdelta_client_runs_total":           1,
		"ipdelta_client_run_failures_total":   0,
		"ipdelta_client_attempts_total":       int64(rep.Attempts),
		"ipdelta_client_retries_total":        int64(rep.Attempts - 1),
		"ipdelta_client_degradations_total":   1,
		"ipdelta_client_full_transfers_total": 1,
		"ipdelta_client_up_to_date_total":     0,
	}
	for name, want := range checks {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Counter("ipdelta_client_bytes_received_total"); got != rep.Result.DeltaBytes || got == 0 {
		t.Errorf("bytes_received = %d, report says %d", got, rep.Result.DeltaBytes)
	}
	if h := snap.Histograms["ipdelta_client_attempt_nanos"]; h.Count != int64(rep.Attempts) {
		t.Errorf("attempt_nanos count = %d, want %d", h.Count, rep.Attempts)
	}
}

// Command updated is the software-update server: it serves the newest of a
// set of image files as in-place reconstructible deltas to updatec clients.
//
// Usage:
//
//	updated -listen 127.0.0.1:7070 [-timeout D] [-failure-budget N]
//	        [-stream-limit N] [-stream-window N] [-max-frame N]
//	        [-metrics-addr ADDR] [-v] v1.img v2.img v3.img
//
// Images are the release history, oldest first; devices running any of them
// are upgraded to the last one. The server speaks protocol v2: each framed
// connection multiplexes many concurrent update sessions (bounded by
// -stream-limit, with per-stream flow-control windows of -stream-window
// bytes and frames capped at -max-frame). -timeout arms a per-message I/O
// deadline, the handshake included, so a stalled client cannot pin a
// server worker; -failure-budget turns away clients (by remote host) after
// N consecutive failed sessions. Each release's delta is built with the
// paper's linear-time differencer and converted in place by the first
// session that needs it, then cached for every later device on that
// release.
//
// -metrics-addr starts an HTTP listener serving the server's metrics
// registry on /metrics (Prometheus-style text, or JSON with
// ?format=json): session outcomes, bytes served, delta-cache size,
// session and per-message latency histograms, plus the codec's
// encode/decode counters. -v enables structured per-session log lines on
// stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"

	"ipdelta/internal/codec"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "updated:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("updated", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "listen address")
	var nf netupdate.Flags
	nf.RegisterServer(fs)
	nf.RegisterTransport(fs)
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics on this HTTP address (empty = disabled)")
	verbose := fs.Bool("v", false, "log each session (structured, stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return errors.New("usage: updated [-listen ADDR] [-metrics-addr ADDR] OLDEST.img ... NEWEST.img")
	}
	history := make([][]byte, 0, len(paths))
	for _, p := range paths {
		img, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		history = append(history, img)
	}
	logger := obs.NopLogger()
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	reg := obs.NewRegistry()
	codec.SetObserver(reg)
	srv, err := netupdate.NewServer(history, append(nf.ServerOptions(),
		netupdate.WithObserver(reg),
		netupdate.WithLogger(logger),
	)...)
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		fmt.Printf("updated: metrics on http://%s/metrics\n", ml.Addr())
		go func() {
			if err := http.Serve(ml, mux); err != nil {
				logger.Error("metrics listener failed", "component", "server", "err", err)
			}
		}()
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("updated: serving %d releases on %s (current: %s, %d bytes)\n",
		len(history), l.Addr(), paths[len(paths)-1], len(srv.Current()))
	return srv.Serve(l)
}

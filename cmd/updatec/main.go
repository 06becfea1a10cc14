// Command updatec simulates a limited network device updating its image
// from an updated server: the image file is loaded into a simulated flash
// part, the in-place delta is streamed and applied with a bounded working
// buffer, and the updated image is written back.
//
// The client speaks protocol v2: one framed, multiplexed connection,
// with each session attempt on a fresh stream.
//
// The client is resilient: transient failures are retried with capped
// exponential backoff (resuming the interrupted update), and persistent
// delta failures degrade to a full-image transfer. For chaos testing, the
// -fault-* flags wrap each attempt's stream in a seeded network fault
// injector.
//
// Usage:
//
//	updatec -server 127.0.0.1:7070 -image device.img
//	        [-capacity N] [-rate BPS] [-timeout D] [-retries N]
//	        [-fallback-after N] [-metrics] [-v]
//	        [-fault-seed N] [-fault-rate P] [-fault-corrupt P] [-fault-drop-after N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"

	"ipdelta/internal/device"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "updatec:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("updatec", flag.ContinueOnError)
	server := fs.String("server", "127.0.0.1:7070", "update server address")
	imagePath := fs.String("image", "", "installed image file (updated in place on success)")
	capacity := fs.Int64("capacity", 0, "flash capacity in bytes (default: 2x image size)")
	rate := fs.Int64("rate", 0, "simulated link rate in bits/second (0 = unthrottled)")
	workBuf := fs.Int("workbuf", device.DefaultWorkBufSize, "device working buffer size")
	var nf netupdate.Flags
	nf.RegisterClient(fs)
	nf.RegisterFaults(fs)
	metrics := fs.Bool("metrics", false, "print a client metrics snapshot (attempts, retries, degradations) to stderr")
	verbose := fs.Bool("v", false, "log each attempt (structured, stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *imagePath == "" {
		return errors.New("updatec: -image is required")
	}
	f, err := os.OpenFile(*imagePath, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	imageLen := fi.Size()
	capBytes := *capacity
	if capBytes == 0 {
		capBytes = imageLen * 2
	}
	// Patch the image file directly, in place, through the bounded-memory
	// device engine — no second copy of the image is ever made.
	store, err := device.NewFileStore(f, capBytes)
	if err != nil {
		return err
	}
	dev := device.New(store, imageLen, *workBuf)

	logger := obs.NopLogger()
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	cc, err := dial(*server, *rate, &nf)
	if err != nil {
		return err
	}
	defer cc.Close()

	client := netupdate.NewClient(append(nf.ClientOptions(),
		netupdate.WithObserver(reg), netupdate.WithLogger(logger))...)
	rep, err := client.Run(context.Background(), nf.Dialer(cc, 0), dev)
	for _, line := range rep.FailureLog {
		fmt.Fprintln(os.Stderr, "updatec:", line)
	}
	if reg != nil {
		fmt.Fprint(os.Stderr, reg.Snapshot().Text())
	}
	if err != nil {
		return err
	}
	if rep.Result.UpToDate {
		fmt.Println("updatec: already up to date")
		return nil
	}
	if err := store.Truncate(dev.ImageLen()); err != nil {
		return err
	}
	if err := store.Sync(); err != nil {
		return err
	}
	how := "delta"
	if rep.Result.FullImage {
		how = "full image (degraded)"
	}
	fmt.Printf("updatec: updated %s in place via %d %s bytes in %d attempt(s) (image now %d bytes)\n",
		*imagePath, rep.Result.DeltaBytes, how, rep.Attempts, dev.ImageLen())
	return nil
}

// dial opens the one multiplexed connection to server that every
// session attempt opens a fresh stream on.
func dial(server string, rate int64, nf *netupdate.Flags) (*netupdate.ClientConn, error) {
	conn, err := net.Dial("tcp", server)
	if err != nil {
		return nil, err
	}
	c := net.Conn(conn)
	if rate > 0 {
		c = netupdate.NewThrottledConn(c, rate)
	}
	cc, err := netupdate.NewClientConn(c, nf.ConnOptions()...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return cc, nil
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ipdelta/internal/corpus"
	"ipdelta/internal/device"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/stats"
)

// TransferRow is one corpus pair in the transfer-time experiment.
type TransferRow struct {
	Name       string
	FullBytes  int64
	DeltaBytes int64
	Speedup    float64
}

// TransferResult backs the §1/§7 motivation: delta compression reduces the
// bytes shipped to a device by 4–10×, shrinking transmission time on
// low-bandwidth channels by the same factor. Each pair runs a real update
// session over an in-memory connection; the bytes on the wire are measured,
// not estimated.
type TransferResult struct {
	Rows  []TransferRow
	Rates []int64 // link rates in bits/second for the time columns
	// MeanSpeedup is the average full/delta ratio.
	MeanSpeedup float64
}

// RunTransfer updates one device per pair and measures wire traffic.
func RunTransfer(pairs []corpus.Pair, rates []int64) (*TransferResult, error) {
	res := &TransferResult{Rates: rates}
	var speedup stats.Aggregate
	for _, p := range pairs {
		srv, err := netupdate.NewServer([][]byte{p.Ref, p.Version})
		if err != nil {
			return nil, err
		}
		capacity := int64(len(p.Ref))
		if int64(len(p.Version)) > capacity {
			capacity = int64(len(p.Version))
		}
		flash, err := device.NewFlash(p.Ref, capacity)
		if err != nil {
			return nil, err
		}
		dev := device.New(flash, int64(len(p.Ref)), device.DefaultWorkBufSize)

		client, server := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer server.Close()
			_ = srv.HandleConn(server)
		}()
		r, err := update(client, dev)
		wg.Wait()
		if err != nil {
			return nil, fmt.Errorf("transfer %s: %w", p.Name, err)
		}
		row := TransferRow{
			Name:       p.Name,
			FullBytes:  int64(len(p.Version)),
			DeltaBytes: r.DeltaBytes,
			Speedup:    float64(len(p.Version)) / float64(r.DeltaBytes),
		}
		speedup.Add(row.Speedup)
		res.Rows = append(res.Rows, row)
	}
	res.MeanSpeedup = speedup.Mean()
	return res, nil
}

// update runs one session for dev on a v2 connection over conn, closing
// the connection afterwards.
func update(conn net.Conn, dev *device.Device) (netupdate.Result, error) {
	cc, err := netupdate.NewClientConn(conn)
	if err != nil {
		conn.Close()
		return netupdate.Result{}, err
	}
	defer cc.Close()
	return cc.Update(context.Background(), dev)
}

// Render prints per-pair traffic and the transmission times at each rate.
func (r *TransferResult) Render(w io.Writer) error {
	headers := []string{"pair", "full image", "in-place delta", "speedup"}
	for _, rate := range r.Rates {
		headers = append(headers, fmt.Sprintf("t@%s", rateName(rate)))
	}
	t := stats.Table{
		Title:   "§1 motivation — transmission of full image vs in-place delta",
		Headers: headers,
	}
	for _, row := range r.Rows {
		cells := []string{
			row.Name,
			stats.Bytes(row.FullBytes),
			stats.Bytes(row.DeltaBytes),
			fmt.Sprintf("%.1f×", row.Speedup),
		}
		for _, rate := range r.Rates {
			full := netupdate.TransferTime(row.FullBytes, rate)
			dl := netupdate.TransferTime(row.DeltaBytes, rate)
			cells = append(cells, fmt.Sprintf("%s→%s", roundDur(full), roundDur(dl)))
		}
		t.AddRow(cells...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "mean speedup %.1f× (paper reports delta compression by a factor of 4 to 10)\n", r.MeanSpeedup)
	return err
}

func rateName(bps int64) string {
	switch {
	case bps >= 1_000_000:
		return fmt.Sprintf("%gMbps", float64(bps)/1e6)
	case bps >= 1_000:
		return fmt.Sprintf("%gkbps", float64(bps)/1e3)
	default:
		return fmt.Sprintf("%dbps", bps)
	}
}

func roundDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(100 * time.Millisecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

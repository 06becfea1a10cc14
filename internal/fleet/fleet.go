// Package fleet simulates distributing a software release to a fleet of
// limited-storage network devices over a shared low-bandwidth channel —
// the deployment scenario that motivates the paper. It compares three
// distribution modes:
//
//   - Full: every device downloads the whole new image. Works whenever the
//     image fits the flash, but ships the most bytes.
//   - DeltaScratch: classic delta reconstruction, requiring the old and
//     new version to be resident simultaneously (capacity ≥ old+new).
//     Devices without that headroom must fall back to a full download.
//   - DeltaInPlace: the paper's contribution — delta-sized traffic with
//     only max(old, new) bytes of storage, so every device that could take
//     a full image can take the delta.
//
// The shared channel serializes transfers, so fleet makespan is total
// bytes divided by the link rate.
package fleet

import (
	"bytes"
	"fmt"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/netupdate"
)

// Mode selects the distribution strategy.
type Mode int

const (
	// ModeFull ships complete images.
	ModeFull Mode = iota + 1
	// ModeDeltaScratch ships deltas applied with two-copy scratch space.
	ModeDeltaScratch
	// ModeDeltaInPlace ships in-place reconstructible deltas.
	ModeDeltaInPlace
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full-image"
	case ModeDeltaScratch:
		return "delta-scratch"
	case ModeDeltaInPlace:
		return "delta-in-place"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DeviceSpec places one device in the fleet.
type DeviceSpec struct {
	// Release indexes the version the device currently runs.
	Release int
	// CapacitySlack is extra flash beyond the larger of (installed image,
	// new image), as a fraction. 0.05 means 5% headroom — far less than
	// the 100%+ a two-copy reconstruction needs.
	CapacitySlack float64
}

// Config describes a fleet simulation.
type Config struct {
	// Releases is the version history, oldest first; the last entry is
	// distributed.
	Releases [][]byte
	// Devices is the fleet.
	Devices []DeviceSpec
	// LinkBitsPerSecond is the shared channel rate.
	LinkBitsPerSecond int64
}

// Outcome summarizes one simulated rollout.
type Outcome struct {
	Mode Mode
	// Updated devices finished on the new release.
	Updated int
	// Fallbacks counts devices that could not use the mode's preferred
	// mechanism and took a full image instead (only in DeltaScratch mode).
	Fallbacks int
	// BytesOnWire totals payload bytes over the shared channel.
	BytesOnWire int64
	// Makespan is the serialized transfer time of the rollout.
	Makespan time.Duration
}

// Simulate runs a rollout in the given mode. Every device ends on the new
// release (falling back to a full image when the mode's mechanism does not
// fit); the cost of the mode shows up in BytesOnWire and Makespan.
func Simulate(cfg Config, mode Mode) (*Outcome, error) {
	if len(cfg.Releases) == 0 {
		return nil, fmt.Errorf("fleet: no releases")
	}
	newImage := cfg.Releases[len(cfg.Releases)-1]
	newLen := int64(len(newImage))
	out := &Outcome{Mode: mode}

	scratchDeltas := map[int]int64{} // encoded size per source release
	algo := diff.NewLinear()
	// The update server builds and caches the in-place deltas.
	srv, err := netupdate.NewServer(cfg.Releases)
	if err != nil {
		return nil, err
	}

	for di, spec := range cfg.Devices {
		if spec.Release < 0 || spec.Release >= len(cfg.Releases) {
			return nil, fmt.Errorf("fleet: device %d runs unknown release %d", di, spec.Release)
		}
		oldImage := cfg.Releases[spec.Release]
		oldLen := int64(len(oldImage))
		capacity := maxI64(oldLen, newLen)
		capacity += int64(float64(capacity) * spec.CapacitySlack)

		switch mode {
		case ModeFull:
			out.BytesOnWire += newLen
		case ModeDeltaScratch:
			if capacity >= oldLen+newLen {
				n, ok := scratchDeltas[spec.Release]
				if !ok {
					d, err := algo.Diff(oldImage, newImage)
					if err != nil {
						return nil, err
					}
					n, err = codec.EncodedSize(d, codec.FormatOrdered)
					if err != nil {
						return nil, err
					}
					scratchDeltas[spec.Release] = n
				}
				out.BytesOnWire += n
			} else {
				// Not enough room for two copies: full image fallback.
				out.Fallbacks++
				out.BytesOnWire += newLen
			}
		case ModeDeltaInPlace:
			enc, err := srv.Delta(spec.Release)
			if err != nil {
				return nil, err
			}
			// Actually drive the device substrate: flash + streaming apply.
			flash, err := device.NewFlash(oldImage, capacity)
			if err != nil {
				return nil, err
			}
			dev := device.New(flash, oldLen, device.DefaultWorkBufSize)
			if err := dev.Apply(bytes.NewReader(enc)); err != nil {
				return nil, fmt.Errorf("fleet: device %d apply: %w", di, err)
			}
			if !bytes.Equal(dev.Image(), newImage) {
				return nil, fmt.Errorf("fleet: device %d ended on the wrong image", di)
			}
			out.BytesOnWire += int64(len(enc))
		default:
			return nil, fmt.Errorf("fleet: unknown mode %v", mode)
		}
		out.Updated++
	}
	out.Makespan = netupdate.TransferTime(out.BytesOnWire, cfg.LinkBitsPerSecond)
	return out, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

package fleet

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ipdelta/internal/corpus"
)

// chaosReleases builds a 3-release history of chained versions.
func chaosReleases(t *testing.T, size int) [][]byte {
	t.Helper()
	base := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: size, ChangeRate: 0, Seed: 77})
	releases := [][]byte{base.Ref}
	cur := base.Ref
	for k := 1; k < 3; k++ {
		gen := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: len(cur), ChangeRate: 0.06, Seed: 77 + int64(k)})
		v := append([]byte(nil), cur...)
		splice := len(v) / 6
		at := (k * 3 * splice) % (len(v) - splice)
		copy(v[at:at+splice], gen.Version[:splice])
		releases = append(releases, v)
		cur = v
	}
	return releases
}

// chaosConfig is the shared fixture: ≥10% op-level connection faults,
// recurring power cuts, flaky flash, one unknown-version device.
func chaosConfig(t *testing.T, seed uint64) ChaosConfig {
	t.Helper()
	return ChaosConfig{
		Releases: chaosReleases(t, 24<<10),
		Devices: []ChaosDeviceSpec{
			{Release: 0, CapacitySlack: 0.05},                           // tight flash, oldest release
			{Release: 0, CapacitySlack: 0.50, PowerCutEveryOps: 60},     // browns out every 60 flash ops
			{Release: 1, CapacitySlack: 0.05, FlashWriteFailProb: 0.01}, // flaky flash
			{Release: 1, CapacitySlack: 0.25},
			{Release: -1, CapacitySlack: 0.10}, // unknown build → full-image fallback
			{Release: 2, CapacitySlack: 0.05},  // already current
		},
		Seed:              seed,
		DropRate:          0.10,
		CorruptRate:       0.02,
		SpikeRate:         0.05,
		Spike:             time.Millisecond,
		MaxAttempts:       40,
		FullFallbackAfter: 5,
		MessageTimeout:    2 * time.Second,
		BaseBackoff:       time.Millisecond,
		WorkBufSize:       1 << 10,
	}
}

// TestChaosFleetConverges runs the faulted rollout: one multiplexed
// connection per device, each attempt on a fresh stream, faults killing
// streams instead of connections.
func TestChaosFleetConverges(t *testing.T) {
	cfg := chaosConfig(t, 42)
	out, err := RunChaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(out.String())
	for _, rep := range out.PerDevice {
		t.Logf("device %d: attempts=%d fellBack=%v converged=%v err=%q",
			rep.Device, rep.Attempts, rep.FellBack, rep.Converged, rep.Err)
	}
	if out.Converged != out.Devices {
		t.Fatalf("only %d/%d devices converged (replay with seed %d)", out.Converged, out.Devices, out.Seed)
	}
	if out.Fallbacks == 0 {
		t.Fatal("no device exercised the full-image fallback path")
	}
	// The unknown-build device must have taken the fallback specifically.
	if !out.PerDevice[4].FellBack {
		t.Fatal("unknown-version device did not fall back to a full image")
	}
	if out.TotalAttempts <= out.Devices {
		t.Fatalf("faults never bit: %d attempts for %d devices", out.TotalAttempts, out.Devices)
	}
	if out.BytesOnWire == 0 {
		t.Fatal("no bytes on the wire")
	}
}

// TestChaosFleetConvergesOverMux checks the per-stream side of the same
// faulted rollout: every device converges over its one multiplexed
// connection although faults reset its streams, each device's traffic is
// counted on its own streams, and the fleet total is their sum.
func TestChaosFleetConvergesOverMux(t *testing.T) {
	cfg := chaosConfig(t, 42)
	out, err := RunChaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Converged != out.Devices {
		t.Fatalf("only %d/%d devices converged over mux (replay with seed %d)",
			out.Converged, out.Devices, out.Seed)
	}
	if out.TotalAttempts <= out.Devices {
		t.Fatalf("faults never bit: %d attempts for %d devices", out.TotalAttempts, out.Devices)
	}
	var sum int64
	for _, rep := range out.PerDevice {
		if rep.Attempts > 0 && rep.BytesOnWire == 0 {
			t.Fatalf("device %d: %d attempts but no bytes counted on its streams", rep.Device, rep.Attempts)
		}
		sum += rep.BytesOnWire
	}
	if sum != out.BytesOnWire {
		t.Fatalf("fleet bytes on wire %d, per-device sum %d", out.BytesOnWire, sum)
	}
}

func TestChaosDeterministicReplay(t *testing.T) {
	first, err := RunChaos(context.Background(), chaosConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunChaos(context.Background(), chaosConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.PerDevice, second.PerDevice) {
		t.Fatalf("replay diverged:\n  first:  %+v\n  second: %+v", first.PerDevice, second.PerDevice)
	}
	if first.BytesOnWire != second.BytesOnWire {
		t.Fatalf("bytes on wire diverged: %d vs %d", first.BytesOnWire, second.BytesOnWire)
	}
}

func TestChaosValidation(t *testing.T) {
	if _, err := RunChaos(context.Background(), ChaosConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunChaos(context.Background(), ChaosConfig{Releases: [][]byte{{1, 2, 3}}}); err == nil {
		t.Fatal("config without devices accepted")
	}
	cfg := ChaosConfig{
		Releases: [][]byte{{1, 2, 3}},
		Devices:  []ChaosDeviceSpec{{Release: -7}},
	}
	if _, err := RunChaos(context.Background(), cfg); err == nil {
		t.Fatal("unknown negative release accepted")
	}
}

package inplace_test

import (
	"bytes"
	"fmt"
	"testing"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
)

// splitInputs returns the version pairs the split property runs over: the
// standard corpus (every profile, size and change rate), and record
// releases 1 and 4 apart, whose moved record runs entangle hundreds of
// copies in cycles.
func splitInputs(t *testing.T) []corpus.Pair {
	t.Helper()
	pairs := corpus.StandardCorpus(1998)
	if testing.Short() {
		pairs = corpus.SmallCorpus(1998)
	}
	chain := corpus.RecordChain(7, 256<<10, 5)
	for _, back := range []int{1, 4} {
		pairs = append(pairs, corpus.Pair{
			Name:    fmt.Sprintf("records/%d-back", back),
			Ref:     chain[4-back],
			Version: chain[4],
		})
	}
	return pairs
}

// TestSplitConversionProperty holds conflict-boundary splitting to the
// paper's invariant and to its own guarantees, over engines × policies ×
// formats: every split delta satisfies Equation 2, reconstructs the
// version byte-exact both under ApplyInPlace and on a streaming device,
// never encodes larger than the paper's whole-copy conversion of the same
// raw delta, and is byte-identical to it when no component is split.
func TestSplitConversionProperty(t *testing.T) {
	engines := []diff.Algorithm{diff.NewLinear(), diff.NewGreedy(), diff.NewBlockwise(), diff.NewCorrecting(nil)}
	policies := []graph.Policy{graph.LocallyMinimum{}, graph.ConstantTime{}}
	var splitDeltas, splitComponents int
	for _, p := range splitInputs(t) {
		for _, eng := range engines {
			raw, err := eng.Diff(p.Ref, p.Version)
			if err != nil {
				t.Fatalf("%s/%s: diff: %v", p.Name, eng.Name(), err)
			}
			for _, pol := range policies {
				// Budget 0 serves the compact and offsets formats; a budget
				// of 2% of the version exercises stashes in the scratch
				// format.
				for _, budget := range []int64{0, int64(len(p.Version)) / 50} {
					formats := []codec.Format{codec.FormatCompact, codec.FormatOffsets}
					if budget > 0 {
						formats = []codec.Format{codec.FormatScratch}
					}
					name := fmt.Sprintf("%s/%s/%s/budget=%d", p.Name, eng.Name(), pol.Name(), budget)
					split, st, err := inplace.Convert(raw, p.Ref, inplace.WithPolicy(pol), inplace.WithScratchBudget(budget))
					if err != nil {
						t.Fatalf("%s: split convert: %v", name, err)
					}
					paper, _, err := inplace.Convert(raw, p.Ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(pol), inplace.WithScratchBudget(budget))
					if err != nil {
						t.Fatalf("%s: paper convert: %v", name, err)
					}
					if st.SplitComponents == 0 {
						requireSameCommands(t, name, paper, split)
					} else {
						splitDeltas++
						splitComponents += st.SplitComponents
					}
					requireInPlace(t, name, split, p.Ref, p.Version)
					for _, f := range formats {
						enc := encode(t, name, split, f)
						if want := int64(len(encode(t, name, paper, f))); int64(len(enc)) > want {
							t.Fatalf("%s/%v: split delta encodes to %d bytes, the paper's to %d", name, f, len(enc), want)
						}
						requireDeviceApply(t, name+"/"+f.String(), enc, p.Ref, p.Version, split.ScratchRequired())
					}
				}
			}
		}
	}
	// The property must have exercised splitting, not only its fallback.
	if splitDeltas == 0 {
		t.Fatal("no input was split; the property proved nothing about splitting")
	}
	t.Logf("%d split deltas, %d split components", splitDeltas, splitComponents)
}

func requireSameCommands(t *testing.T, name string, want, got *delta.Delta) {
	t.Helper()
	if len(got.Commands) != len(want.Commands) {
		t.Fatalf("%s: no component split, yet %d commands against the paper's %d", name, len(got.Commands), len(want.Commands))
	}
	for k := range got.Commands {
		if !got.Commands[k].Equal(want.Commands[k]) {
			t.Fatalf("%s: no component split, yet command %d is %v, the paper's %v", name, k, got.Commands[k], want.Commands[k])
		}
	}
}

func requireInPlace(t *testing.T, name string, d *delta.Delta, ref, version []byte) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: invalid delta: %v", name, err)
	}
	if err := d.CheckInPlace(); err != nil {
		t.Fatalf("%s: Equation 2 violated: %v", name, err)
	}
	buf := make([]byte, d.InPlaceBufLen())
	copy(buf, ref)
	if err := d.ApplyInPlace(buf); err != nil {
		t.Fatalf("%s: ApplyInPlace: %v", name, err)
	}
	if !bytes.Equal(buf[:d.VersionLen], version) {
		t.Fatalf("%s: ApplyInPlace reconstructs the wrong version", name)
	}
}

func encode(t *testing.T, name string, d *delta.Delta, f codec.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, f); err != nil {
		t.Fatalf("%s: encode %v: %v", name, f, err)
	}
	return buf.Bytes()
}

// requireDeviceApply streams enc into a device holding ref and checks the
// installed image.
func requireDeviceApply(t *testing.T, name string, enc, ref, version []byte, scratch int64) {
	t.Helper()
	capacity := int64(max(len(ref), len(version))) + scratch
	flash, err := device.NewFlash(ref, capacity)
	if err != nil {
		t.Fatalf("%s: flash: %v", name, err)
	}
	dev := device.New(flash, int64(len(ref)), device.DefaultWorkBufSize)
	if err := dev.Apply(bytes.NewReader(enc)); err != nil {
		t.Fatalf("%s: device apply: %v", name, err)
	}
	if !bytes.Equal(dev.Image(), version) {
		t.Fatalf("%s: device installs the wrong image", name)
	}
}

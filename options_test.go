package ipdelta

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// scrambledPair builds a (ref, version) pair whose diff has real cycles,
// so policies and scratch budgets actually change the converted delta.
func scrambledPair(seed int64, size int) (ref, version []byte) {
	rng := rand.New(rand.NewSource(seed))
	ref = make([]byte, size)
	rng.Read(ref)
	// Swap the halves and churn a stripe: block moves in both directions
	// entangle the CRWI digraph.
	version = append([]byte(nil), ref[size/2:]...)
	version = append(version, ref[:size/2]...)
	stripe := version[size/4 : size/4+size/16]
	rng.Read(stripe)
	return ref, version
}

// encodeAll renders a delta in an in-place capable wire format for
// byte-for-byte comparison (scratch deltas need the scratch format).
func encodeAll(t *testing.T, d *Delta) []byte {
	t.Helper()
	f := FormatCompact
	if d.ScratchRequired() > 0 {
		f = FormatScratch
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reconstructs applies ip in place over ref and checks the result is
// version.
func reconstructs(t *testing.T, ip *Delta, ref, version []byte) {
	t.Helper()
	buf := make([]byte, ip.InPlaceBufLen())
	copy(buf, ref)
	if err := PatchInPlace(buf, ip); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:ip.VersionLen], version) {
		t.Fatal("wrong in-place reconstruction")
	}
}

// TestConvertOptionsMatchLegacy pins the options API that replaced the
// retired positional entry points (hence the name): for every policy and
// scratch budget, ConvertInPlace with the matching option applies that
// setting and yields a correct in-place delta.
func TestConvertOptionsMatchLegacy(t *testing.T) {
	ref, version := scrambledPair(17, 16<<10)
	d, err := Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("policy", func(t *testing.T) {
		for _, p := range []Policy{LocallyMinimum, ConstantTime} {
			t.Run(p.Name(), func(t *testing.T) {
				ip, st, err := ConvertInPlace(d, ref, WithPolicy(p))
				if err != nil {
					t.Fatal(err)
				}
				if st.Policy != p.Name() {
					t.Fatalf("converted under %q, want %q", st.Policy, p.Name())
				}
				if st.CyclesBroken == 0 {
					t.Fatal("fixture has no cycles; the policy is not exercised")
				}
				reconstructs(t, ip, ref, version)
			})
		}
	})

	t.Run("scratch", func(t *testing.T) {
		for _, budget := range []int64{0, 64, 4 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
				ip, st, err := ConvertInPlace(d, ref, WithScratchBudget(budget))
				if err != nil {
					t.Fatal(err)
				}
				if got := ip.ScratchRequired(); got > budget || got != st.ScratchUsed {
					t.Fatalf("scratch required %d, stats say %d, budget %d", got, st.ScratchUsed, budget)
				}
				// Scratch deltas must survive their wire format too.
				got, _, err := Decode(bytes.NewReader(encodeAll(t, ip)))
				if err != nil {
					t.Fatal(err)
				}
				reconstructs(t, got, ref, version)
			})
		}
	})

	// Options compose: policy + scratch budget together still apply
	// correctly in place.
	t.Run("composed", func(t *testing.T) {
		ip, _, err := ConvertInPlace(d, ref, WithPolicy(ConstantTime), WithScratchBudget(4<<10))
		if err != nil {
			t.Fatal(err)
		}
		reconstructs(t, ip, ref, version)
	})
}

// TestConvertObserverRecords attaches a registry through the facade and
// checks the conversion pipeline reported into it.
func TestConvertObserverRecords(t *testing.T) {
	ref, version := scrambledPair(23, 8<<10)
	d, err := Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	ip, st, err := ConvertInPlace(d, ref, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("ipdelta_convert_total"); got != 1 {
		t.Errorf("ipdelta_convert_total = %d, want 1", got)
	}
	if got := snap.Counter(`ipdelta_convert_cycles_broken_total{policy="locally-minimum"}`); got != int64(st.CyclesBroken) {
		t.Errorf("cycles_broken counter = %d, stats say %d", got, st.CyclesBroken)
	}
	if st.CyclesBroken == 0 {
		t.Error("fixture has no cycles; the counter assertion is vacuous")
	}
	for _, name := range []string{
		"ipdelta_convert_stage_crwi_nanos",
		"ipdelta_convert_stage_toposort_nanos",
		"ipdelta_convert_stage_emit_nanos",
	} {
		if h := snap.Histograms[name]; h.Count == 0 {
			t.Errorf("%s recorded no observations", name)
		}
	}
	// The observed conversion is still correct.
	reconstructs(t, ip, ref, version)
}

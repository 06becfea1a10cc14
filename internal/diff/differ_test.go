package diff

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
)

// TestDifferMatchesLinear interleaves many diffs through one Differ and
// checks each pooled result (while valid) against the detached
// (*Linear).Diff output.
func TestDifferMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear()
	dr := NewDiffer()
	for i := 0; i < 40; i++ {
		ref := make([]byte, 200+rng.Intn(4000))
		rng.Read(ref)
		version := mutate(rng, ref, 1+rng.Intn(8))

		want, err := l.Diff(ref, version)
		if err != nil {
			t.Fatalf("case %d: Linear.Diff: %v", i, err)
		}
		got, err := dr.Diff(ref, version)
		if err != nil {
			t.Fatalf("case %d: Differ.Diff: %v", i, err)
		}
		if got.RefLen != want.RefLen || got.VersionLen != want.VersionLen {
			t.Fatalf("case %d: lengths differ: got %d/%d, want %d/%d",
				i, got.RefLen, got.VersionLen, want.RefLen, want.VersionLen)
		}
		if len(got.Commands) != len(want.Commands) {
			t.Fatalf("case %d: %d commands, want %d", i, len(got.Commands), len(want.Commands))
		}
		for k := range got.Commands {
			if !got.Commands[k].Equal(want.Commands[k]) {
				t.Fatalf("case %d: command %d: got %v, want %v",
					i, k, got.Commands[k], want.Commands[k])
			}
		}
		out, err := got.Apply(ref)
		if err != nil {
			t.Fatalf("case %d: apply: %v", i, err)
		}
		if !bytes.Equal(out, version) {
			t.Fatalf("case %d: pooled delta does not reproduce the version", i)
		}
	}
}

// TestDifferEdgeCases covers the empty-version and too-short-to-seed
// fallback paths through the reusable differencer.
func TestDifferEdgeCases(t *testing.T) {
	dr := NewDiffer()
	for _, tc := range []struct{ ref, version string }{
		{"", ""},
		{"reference bytes", ""},
		{"", "short"},
		{"tiny", "also tiny"},
	} {
		d, err := dr.Diff([]byte(tc.ref), []byte(tc.version))
		if err != nil {
			t.Fatalf("Diff(%q, %q): %v", tc.ref, tc.version, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Diff(%q, %q): invalid delta: %v", tc.ref, tc.version, err)
		}
		out, err := d.Apply([]byte(tc.ref))
		if err != nil {
			t.Fatalf("Diff(%q, %q): apply: %v", tc.ref, tc.version, err)
		}
		if string(out) != tc.version {
			t.Fatalf("Diff(%q, %q): reproduced %q", tc.ref, tc.version, out)
		}
	}
}

// allocBenchPair builds a deterministic (ref, version) pair large enough
// that the differencer exercises its table, emitter, and arena.
func allocBenchPair() (ref, version []byte) {
	rng := rand.New(rand.NewSource(1998))
	ref = make([]byte, 64<<10)
	rng.Read(ref)
	version = mutate(rng, ref, 40)
	return ref, version
}

// TestDifferAllocs is the steady-state allocation gate for the reusable
// differencing path: after warm-up, (*Differ).Diff must perform at most 2
// allocations per call (it is expected to reach 0; the slack tolerates
// runtime-internal noise, not differencer regressions).
func TestDifferAllocs(t *testing.T) {
	ref, version := allocBenchPair()
	dr := NewDiffer()
	if _, err := dr.Diff(ref, version); err != nil { // warm the scratch
		t.Fatalf("warm-up diff: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := dr.Diff(ref, version); err != nil {
			t.Fatalf("diff: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state (*Differ).Diff allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestLinearDiffAllocs gates the detached path. Its contract — the caller
// owns the result — floors it at 3 allocations per call (the Delta
// struct, the command slice, and the single shared data arena); the
// fingerprint table and emitter scratch must come from the pool and add
// nothing. The bound of 4 is a rot guard above that floor.
func TestLinearDiffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	ref, version := allocBenchPair()
	l := NewLinear()
	if _, err := l.Diff(ref, version); err != nil { // warm the pool
		t.Fatalf("warm-up diff: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := l.Diff(ref, version); err != nil {
			t.Fatalf("diff: %v", err)
		}
	})
	if allocs > 4 {
		t.Fatalf("steady-state (*Linear).Diff allocates %.1f times per call, want <= 4", allocs)
	}
}

// TestLinearConcurrentDiffs runs concurrent diffs through one *Linear, the
// way a server shares one Algorithm across its builds. The pairs span
// every indexing stride (1, 2, 4, 8), so pooled states are handed between
// goroutines with differently sized tables. Each result must equal a
// serial diff of the same pair and reconstruct the version; under -race
// this also proves the pooled fingerprint tables are never shared.
func TestLinearConcurrentDiffs(t *testing.T) {
	profiles := []corpus.Profile{corpus.Text, corpus.Binary, corpus.Firmware, corpus.Database}
	sizes := []int{4 << 10, 96 << 10, 320 << 10, 1100 << 10}
	const pairs, rounds = 8, 3
	l := NewLinear()
	var refs, versions [][]byte
	var want []*delta.Delta
	for i := 0; i < pairs; i++ {
		p := corpus.Generate(corpus.PairSpec{
			Profile:    profiles[i%len(profiles)],
			Size:       sizes[i%len(sizes)],
			ChangeRate: 0.05,
			Seed:       int64(1998 + i),
		})
		d, err := l.Diff(p.Ref, p.Version)
		if err != nil {
			t.Fatalf("pair %d: serial diff: %v", i, err)
		}
		refs, versions, want = append(refs, p.Ref), append(versions, p.Version), append(want, d)
	}

	var wg sync.WaitGroup
	errs := make(chan error, pairs*rounds)
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := sameDiff(l, refs[i], versions[i], want[i]); err != nil {
					errs <- fmt.Errorf("pair %d round %d: %w", i, round, err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameDiff diffs (ref, version) and checks the result against want, byte
// for byte, and that it reconstructs version.
func sameDiff(l *Linear, ref, version []byte, want *delta.Delta) error {
	got, err := l.Diff(ref, version)
	if err != nil {
		return err
	}
	if got.RefLen != want.RefLen || got.VersionLen != want.VersionLen || len(got.Commands) != len(want.Commands) {
		return fmt.Errorf("shape %d/%d/%d commands, serial %d/%d/%d",
			got.RefLen, got.VersionLen, len(got.Commands), want.RefLen, want.VersionLen, len(want.Commands))
	}
	for k := range got.Commands {
		if !got.Commands[k].Equal(want.Commands[k]) {
			return fmt.Errorf("command %d: %v, serial %v", k, got.Commands[k], want.Commands[k])
		}
	}
	out, err := got.Apply(ref)
	if err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if !bytes.Equal(out, version) {
		return fmt.Errorf("delta does not reconstruct the version")
	}
	return nil
}

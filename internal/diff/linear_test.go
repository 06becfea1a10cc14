package diff

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
)

// allocBenchPair builds a deterministic (ref, version) pair large enough
// that the differencer exercises its table, emitter, and arena.
func allocBenchPair() (ref, version []byte) {
	rng := rand.New(rand.NewSource(1998))
	ref = make([]byte, 64<<10)
	rng.Read(ref)
	version = mutate(rng, ref, 40)
	return ref, version
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

// TestLinearFreshInstanceAllocs: every Linear draws its table and emitter
// from one process-wide pool, so the first diff on a fresh instance (each
// new update server makes one) allocates only its caller-owned output,
// the 3 of the diff/one-shot bench row.
func TestLinearFreshInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
	ref, version := allocBenchPair()
	if _, err := NewLinear().Diff(ref, version); err != nil { // warm the pool
		t.Fatalf("warm-up diff: %v", err)
	}
	const runs = 20
	fresh := make([]*Linear, runs+1) // AllocsPerRun calls once more to warm up
	for k := range fresh {
		fresh[k] = NewLinear()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := fresh[next].Diff(ref, version); err != nil {
			t.Fatalf("diff: %v", err)
		}
		next++
	})
	if allocs > 3 {
		t.Fatalf("a fresh Linear's first Diff allocates %.1f times, want <= 3", allocs)
	}
}

// TestLinearDiffBorrowed: DiffBorrowed lends exactly the delta Diff
// returns, with no allocation once the pool is warm, and a Diff result
// shares no memory with the pool: borrows after it, of other pairs, leave
// it intact.
func TestLinearDiffBorrowed(t *testing.T) {
	ref, version := allocBenchPair()
	l := NewLinear()
	got, err := l.Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	want := got.Clone()
	b := l.DiffBorrowed(ref, version)
	if !reflect.DeepEqual(b.Delta(), want) {
		t.Fatal("borrowed delta differs from Diff's")
	}
	b.Release()
	rng := rand.New(rand.NewSource(38))
	for k := 0; k < 4; k++ {
		other := mutate(rng, version, 40)
		b := l.DiffBorrowed(version, other)
		if out, err := b.Delta().Apply(version); err != nil || !bytes.Equal(out, other) {
			t.Fatalf("borrowed delta %d does not rebuild its version: %v", k, err)
		}
		b.Release()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("later borrows changed a Diff result")
	}
	if raceEnabled {
		return // race instrumentation inflates allocation counts
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
	allocs := testing.AllocsPerRun(20, func() {
		l.DiffBorrowed(ref, version).Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state DiffBorrowed allocates %.1f times per call, want 0", allocs)
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

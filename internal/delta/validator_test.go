package delta

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"ipdelta/internal/interval"
)

// validateInOrder is the reference validator: it checks commands in order,
// inserting every write interval into a sorted interval set, and reports
// the first failure it meets.
func validateInOrder(d *Delta) error {
	written := interval.NewSet()
	for k, c := range d.Commands {
		if err := d.validateCommand(c); err != nil {
			return &ValidationError{Index: k, Cmd: c, Cause: err}
		}
		w := c.WriteInterval()
		if written.Overlaps(w) {
			return &ValidationError{Index: k, Cmd: c, Cause: ErrOverlap}
		}
		written.Add(w)
	}
	if written.Total() != d.VersionLen {
		return &ValidationError{Index: -1, Cause: ErrCoverage}
	}
	if d.VersionLen > 0 && !written.ContainsInterval(interval.FromRange(0, d.VersionLen)) {
		return &ValidationError{Index: -1, Cause: ErrCoverage}
	}
	return d.validateScratch()
}

// TestValidatorMatchesInOrderReference checks the Validator against the
// in-order reference on valid deltas in scattered order and on seeded
// corruptions of them (overlaps, gaps, bad commands, several at once): both
// must accept the same deltas and report the same command and cause. The
// first family writes below 512 bytes, so its spans sort in at most two
// radix passes; the second is copy-only with write starts reaching near
// 2^40, in shuffled or reversed order, so sorting them takes every pass
// their starts need and corruptions duplicate starts.
func TestValidatorMatchesInOrderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	var v Validator // reused across cases: scratch must not leak
	families := []struct {
		name string
		gen  func() *Delta
	}{
		{"small", func() *Delta {
			d := &Delta{RefLen: 512}
			var at int64
			for at < 400 {
				l := int64(1 + rng.Intn(40))
				if rng.Intn(3) == 0 {
					d.Commands = append(d.Commands, NewAdd(at, make([]byte, l)))
				} else {
					d.Commands = append(d.Commands, NewCopy(rng.Int63n(d.RefLen-l+1), at, l))
				}
				at += l
			}
			d.VersionLen = at
			rng.Shuffle(len(d.Commands), func(a, b int) { d.Commands[a], d.Commands[b] = d.Commands[b], d.Commands[a] })
			return d
		}},
		{"wide", func() *Delta {
			d := &Delta{RefLen: 1 << 41}
			var at int64
			for at < 1<<40-1<<36 {
				l := 1 + rng.Int63n(1<<rng.Intn(37))
				d.Commands = append(d.Commands, NewCopy(rng.Int63n(d.RefLen-l+1), at, l))
				at += l
			}
			d.VersionLen = at
			if rng.Intn(2) == 0 {
				slices.Reverse(d.Commands)
			} else {
				rng.Shuffle(len(d.Commands), func(a, b int) { d.Commands[a], d.Commands[b] = d.Commands[b], d.Commands[a] })
			}
			return d
		}},
	}
	for _, fam := range families {
		for i := 0; i < 2000; i++ {
			d := fam.gen()
			for k := rng.Intn(4); k > 0; k-- {
				c := &d.Commands[rng.Intn(len(d.Commands))]
				switch rng.Intn(5) {
				case 0: // shift a write: overlap and a gap
					if c.Op == OpCopy {
						c.To += int64(rng.Intn(9)) - 4
					}
				case 1: // drop a command: coverage gap
					d.Commands = append(d.Commands[:0:0], d.Commands[1:]...)
				case 2: // duplicate a command: overlap
					d.Commands = append(d.Commands, d.Commands[rng.Intn(len(d.Commands))])
				case 3:
					c.Length = 0
				case 4:
					c.Op = Op(9)
				}
			}
			want, got := validateInOrder(d), v.Validate(d)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s case %d: reference %v, validator %v", fam.name, i, want, got)
			}
			if want == nil {
				continue
			}
			var we, ge *ValidationError
			if !errors.As(want, &we) || !errors.As(got, &ge) {
				t.Fatalf("%s case %d: reference %v, validator %v", fam.name, i, want, got)
			}
			if we.Index != ge.Index || !errors.Is(ge, we.Cause) {
				t.Fatalf("%s case %d: reference %v, validator %v", fam.name, i, want, got)
			}
		}
	}
}

// shuffledCopies returns a valid copy-only delta of n 128-byte copies
// listed out of write order, as an in-place delta lists them.
func shuffledCopies(n int) *Delta {
	rng := rand.New(rand.NewSource(30))
	const rec = 128
	d := &Delta{RefLen: int64(n) * rec, VersionLen: int64(n) * rec}
	for k := int64(0); k < int64(n); k++ {
		d.Commands = append(d.Commands, NewCopy(rng.Int63n(d.RefLen-rec+1), k*rec, rec))
	}
	rng.Shuffle(n, func(a, b int) { d.Commands[a], d.Commands[b] = d.Commands[b], d.Commands[a] })
	return d
}

// TestValidatorAllocs checks that a reused Validator sorts and checks an
// out-of-order delta in the scratch it already holds.
func TestValidatorAllocs(t *testing.T) {
	const n = 4500
	d := shuffledCopies(n)
	var v Validator
	if err := v.Validate(d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := v.Validate(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused Validator allocates %.1f times per %d-command delta, want 0", allocs, n)
	}
}

// TestDeltaValidateAllocs: (*Delta).Validate draws its Validator from a
// pool, so once warmed it validates without allocating, where it used to
// allocate 2n spans per call.
func TestDeltaValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
	const n = 4500
	d := shuffledCopies(n)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed (*Delta).Validate allocates %.1f times per %d-command delta, want 0", allocs, n)
	}
}

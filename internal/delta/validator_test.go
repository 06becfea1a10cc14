package delta

import (
	"errors"
	"math/rand"
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

// TestValidatorMatchesInOrderReference checks the span-sorting Validator
// against the in-order reference on valid deltas in scattered order and on
// seeded corruptions of them (overlaps, gaps, bad commands, several at
// once): both must accept the same deltas and report the same command and
// cause.
func TestValidatorMatchesInOrderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	var v Validator // reused across cases: scratch must not leak
	for i := 0; i < 2000; i++ {
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
			t.Fatalf("case %d: reference %v, validator %v", i, want, got)
		}
		if want == nil {
			continue
		}
		var we, ge *ValidationError
		if !errors.As(want, &we) || !errors.As(got, &ge) {
			t.Fatalf("case %d: reference %v, validator %v", i, want, got)
		}
		if we.Index != ge.Index || !errors.Is(ge, we.Cause) {
			t.Fatalf("case %d: reference %v, validator %v", i, want, got)
		}
	}
}

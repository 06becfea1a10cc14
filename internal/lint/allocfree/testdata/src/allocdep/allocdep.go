// Test dependency package for allocfree: exports one allocation-free
// function and one allocating function, so the target package exercises
// imported AllocFacts in both directions. No function here is annotated,
// so the package itself produces no diagnostics.
package allocdep

// Sum is allocation-free; its exported fact says so.
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Grow allocates; its exported fact carries the reason.
func Grow(n int) []int {
	return make([]int, n)
}

// Box is a generic type whose methods the target calls through an
// instantiation; their facts are exported on the declared methods.
type Box[T any] struct{ items []T }

// Get is allocation-free.
func (b *Box[T]) Get(k int) T { return b.items[k] }

// Copy allocates.
func (b *Box[T]) Copy() []T { return make([]T, len(b.items)) }

// MakeOf is a generic function the target calls through an explicit
// instantiation; it allocates.
func MakeOf[T any](n int) []T { return make([]T, n) }

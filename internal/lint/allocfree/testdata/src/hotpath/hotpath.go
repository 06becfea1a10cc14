// Test package for the allocfree analyzer: every syntactic allocation
// form, the permitted idioms, and transitive reporting through local
// helpers and the imported allocdep facts.
package hotpath

import (
	"fmt"
	"sort"

	"allocdep"
)

type header struct {
	off int64
	n   int
}

var sink []int

// Clean is the all-negatives case: value literals, self-append, index and
// arithmetic, a call to a clean local helper and a clean dependency
// function.
//
//ipvet:allocfree
func Clean(buf []int, xs []int) []int {
	h := header{off: 4, n: len(xs)}
	buf = append(buf, h.n)
	buf = append(buf, allocdep.Sum(xs))
	buf = append(buf, pure(len(buf)))
	return buf
}

// pure is reachable from Clean and must stay allocation-free.
func pure(n int) int { return n * 2 }

//ipvet:allocfree
func UsesMake(n int) []int {
	return make([]int, n) // want `UsesMake is marked //ipvet:allocfree but calls make`
}

//ipvet:allocfree
func UsesNew() *header {
	return new(header) // want `UsesNew is marked //ipvet:allocfree but calls new`
}

//ipvet:allocfree
func PointerLiteral() *header {
	return &header{off: 1} // want `PointerLiteral is marked //ipvet:allocfree but heap-allocates a composite literal with &`
}

//ipvet:allocfree
func SliceLiteral() int {
	xs := []int{1, 2, 3} // want `SliceLiteral is marked //ipvet:allocfree but builds a slice literal`
	return xs[0]
}

//ipvet:allocfree
func MapLiteral() int {
	m := map[string]int{"a": 1} // want `MapLiteral is marked //ipvet:allocfree but builds a map literal`
	return m["a"]
}

//ipvet:allocfree
func ForeignAppend(xs []int) {
	sink = append(xs, 1) // want `ForeignAppend is marked //ipvet:allocfree but grows a slice with append into a different variable`
}

//ipvet:allocfree
func BytesToString(b []byte) string {
	return string(b) // want `BytesToString is marked //ipvet:allocfree but converts a byte slice to a string`
}

//ipvet:allocfree
func StringToBytes(s string) []byte {
	return []byte(s) // want `StringToBytes is marked //ipvet:allocfree but converts a string to a byte slice`
}

//ipvet:allocfree
func Boxes(n int) any {
	return any(n) // want `Boxes is marked //ipvet:allocfree but boxes a value into an interface`
}

//ipvet:allocfree
func Concat(a, b string) string {
	return a + b // want `Concat is marked //ipvet:allocfree but concatenates strings`
}

//ipvet:allocfree
func EscapingClosure(n int) func() int {
	f := func() int { return n } // want `EscapingClosure is marked //ipvet:allocfree but creates an escaping function literal`
	return f
}

//ipvet:allocfree
func Spawns(ch chan int) {
	go drain(ch) // want `Spawns is marked //ipvet:allocfree but starts a goroutine`
}

func drain(ch chan int) {
	for range ch {
	}
}

// Immediately invoked and direct-call-argument literals are the permitted
// closure forms.
//
//ipvet:allocfree
func AllowedClosures(xs []int, k int) int {
	n := func() int { return k * 2 }()
	return n + sort.SearchInts(xs, func() int { return k }())
}

// Transitive: the annotated function is clean itself but calls a local
// helper that allocates; the finding lands on the call site.
//
//ipvet:allocfree
func CallsLocalAllocator(n int) []int {
	return grow(n) // want `CallsLocalAllocator is marked //ipvet:allocfree but calls grow which allocates`
}

func grow(n int) []int {
	return make([]int, n)
}

// Cross-package: the callee's AllocFact was exported when allocdep was
// analyzed, so the reason flows through the fact.
//
//ipvet:allocfree
func CallsDepAllocator(n int) []int {
	return allocdep.Grow(n) // want `CallsDepAllocator is marked //ipvet:allocfree but calls Grow which allocates`
}

// Methods of an instantiated generic type resolve to the declared
// methods' facts.
//
//ipvet:allocfree
func GenericDepClean(b *allocdep.Box[int]) int {
	return b.Get(0)
}

//ipvet:allocfree
func GenericDepAllocator(b *allocdep.Box[int]) []int {
	return b.Copy() // want `GenericDepAllocator is marked //ipvet:allocfree but calls Copy which allocates`
}

// An explicit instantiation calls the generic function: its fact
// applies, imported or local.
//
//ipvet:allocfree
func InstantiatedDepAllocator(n int) []int {
	return allocdep.MakeOf[int](n) // want `InstantiatedDepAllocator is marked //ipvet:allocfree but calls MakeOf which allocates`
}

//ipvet:allocfree
func InstantiatedLocalAllocator(n int) map[int]string {
	return mapOf[int, string](n) // want `InstantiatedLocalAllocator is marked //ipvet:allocfree but calls mapOf which allocates`
}

func mapOf[K comparable, V any](n int) map[K]V {
	return make(map[K]V, n)
}

// Calling through an index into a slice of funcs stays dynamic, so it is
// trusted.
//
//ipvet:allocfree
func IndexedFunc(fs []func(int) int, n int) int {
	return fs[0](n)
}

// Deny-listed external package: every fmt call is assumed to allocate.
//
//ipvet:allocfree
func Formats(n int) string {
	return fmt.Sprintf("%d", n) // want `Formats is marked //ipvet:allocfree but calls fmt.Sprintf, an allocation-heavy package`
}

// Self-recursion must terminate and stay clean.
//
//ipvet:allocfree
func Fib(n int) int {
	if n < 2 {
		return n
	}
	return Fib(n-1) + Fib(n-2)
}

// An analyzer-scoped suppression silences the finding.
//
//ipvet:allocfree
func Suppressed(n int) []int {
	return make([]int, n) //ipvet:ignore allocfree -- cold path, measured separately
}

// Unannotated functions may allocate freely.
func Unchecked(n int) []int {
	return make([]int, n)
}

// The seam-merge idioms: a three-index sub-slice windowing an existing
// arena, appends back into the same variable, relocation with copy, and
// the pop-by-reslice pattern. None of these allocate.
//
//ipvet:allocfree
func WindowedArena(arena []byte, cmds []header, lo, hi int) []header {
	w := arena[lo:lo:hi]
	w = append(w, arena[:lo]...)
	copy(arena[lo:], w)
	if len(cmds) > 0 && cmds[len(cmds)-1].n == 0 {
		cmds = cmds[:len(cmds)-1]
	}
	return append(cmds, header{off: int64(lo), n: len(w)})
}

// The cost-model idiom: float arithmetic over converted ints feeding a
// branch. Pure computation, no allocation.
//
//ipvet:allocfree
func CostModel(n, w int) int {
	seq := 13.0 * float64(n)
	par := seq/float64(w) + 20000.0 + 6000.0*float64(w)
	if par >= seq {
		return 1
	}
	return w
}

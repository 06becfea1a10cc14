package mux

import (
	"io"
	"sync"
)

// ring is a stream's receive buffer: a byte ring that grows lazily from
// a small pooled slab toward the stream's advertised window. Flow
// control guarantees the peer never has more than the window in flight,
// so a full-window ring always has room for every arriving frame; most
// streams never grow past the smallest slab because the application
// drains as data arrives.
type ring struct {
	buf  []byte
	slab *[]byte // buf's pool entry, put back unchanged
	head int     // index of the first unread byte
	n    int     // unread byte count
}

// slab size classes for pooled ring storage. Sized so a 10k-session load
// run does not hold 10k full windows: an idle update stream lives in the
// 4 KiB class, and only streams that actually buffer a large delta climb
// the ladder.
var slabClasses = [...]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// slabPools pools ring storage per size class.
var slabPools [len(slabClasses)]sync.Pool

// classFor returns the smallest slab class index holding n bytes, or -1
// when n exceeds every class (the caller allocates exactly).
func classFor(n int) int {
	for k, c := range slabClasses {
		if n <= c {
			return k
		}
	}
	return -1
}

// getSlab returns a slab with capacity ≥ n. The pools hold the slabs'
// pointers, so a slab moves in and out of its pool without allocating.
func getSlab(n int) *[]byte {
	k := classFor(n)
	if k < 0 {
		b := make([]byte, n)
		return &b
	}
	if s, ok := slabPools[k].Get().(*[]byte); ok {
		return s
	}
	b := make([]byte, slabClasses[k])
	return &b
}

// putSlab returns slab storage to its pool, if it belongs to a class.
func putSlab(b *[]byte) {
	if b == nil {
		return
	}
	for k, c := range slabClasses {
		if len(*b) == c {
			slabPools[k].Put(b)
			return
		}
	}
}

// free reports how many more bytes the ring can hold at its current
// size.
//
//ipvet:allocfree
func (q *ring) free() int { return len(q.buf) - q.n }

// grow ensures the ring can hold need more bytes, moving to a larger
// slab if required. The caller bounds need by the stream window.
func (q *ring) grow(need int) {
	if q.free() >= need {
		return
	}
	ns := getSlab(q.n + need)
	nb := *ns
	// Unwrap into the new slab.
	tail := len(q.buf) - q.head
	if tail > q.n {
		tail = q.n
	}
	copy(nb, q.buf[q.head:q.head+tail])
	copy(nb[tail:], q.buf[:q.n-tail])
	putSlab(q.slab)
	q.buf, q.slab = nb, ns
	q.head = 0
}

// fill reads exactly n bytes from r into the ring. The caller must have
// ensured capacity via grow.
func (q *ring) fill(r io.Reader, n int) error {
	for n > 0 {
		end := (q.head + q.n) % len(q.buf)
		span := len(q.buf) - end
		if end < q.head {
			span = q.head - end
		}
		if span > n {
			span = n
		}
		if _, err := io.ReadFull(r, q.buf[end:end+span]); err != nil {
			return err
		}
		q.n += span
		n -= span
	}
	return nil
}

// read copies up to len(p) buffered bytes into p.
//
//ipvet:allocfree
func (q *ring) read(p []byte) int {
	total := 0
	for q.n > 0 && total < len(p) {
		span := len(q.buf) - q.head
		if span > q.n {
			span = q.n
		}
		if span > len(p)-total {
			span = len(p) - total
		}
		copy(p[total:], q.buf[q.head:q.head+span])
		q.head = (q.head + span) % len(q.buf)
		q.n -= span
		total += span
	}
	return total
}

// release returns the ring's storage to the pool.
func (q *ring) release() {
	putSlab(q.slab)
	q.buf, q.slab = nil, nil
	q.head = 0
	q.n = 0
}

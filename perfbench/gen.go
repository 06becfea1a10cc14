package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"slices"
)

// Each use of the seed draws from its own PCG stream, so a change to one
// generator never shifts another's draws.
const (
	streamImages   = 1
	streamSessions = 2
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func fillRandom(r *rand.Rand, b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.Uint64())
		b = b[8:]
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], r.Uint64())
	copy(b, w[:])
}

func appendRandom(r *rand.Rand, out []byte, n int) []byte {
	at := len(out)
	out = slices.Grow(out, n)[:at+n]
	fillRandom(r, out[at:])
	return out
}

// chain generates a seeded release history: the first call returns the
// base image, each later call the next release, built from the previous
// one in a single pass over it.
type chain interface{ next() []byte }

// firmwareChain makes byte-granular firmware releases: the image is cut
// into 16 KiB pieces, one piece in each quarter of the image swaps places
// with its successor (block moves), and every piece takes two patches — overwrites, inserts or
// deletes of 1 to 256 bytes. Fixed counts keep the delta size from
// varying much between seeds.
const (
	firmwarePiece = 16 << 10
	firmwareSwaps = 4
)

type firmwareChain struct {
	r    *rand.Rand
	size int
	cur  []byte
}

func newFirmwareChain(seed int64, size int) *firmwareChain {
	return &firmwareChain{r: newRand(seed, streamImages), size: size}
}

func (c *firmwareChain) next() []byte {
	if c.cur == nil {
		c.cur = make([]byte, c.size)
		fillRandom(c.r, c.cur)
		return c.cur
	}
	prev, r := c.cur, c.r
	pieces := (len(prev) + firmwarePiece - 1) / firmwarePiece
	order := make([]int, pieces)
	for i := range order {
		order[i] = i
	}
	// One swap per stretch of the image, so swaps never overlap.
	if stretch := pieces / firmwareSwaps; stretch >= 2 {
		for k := 0; k < firmwareSwaps; k++ {
			i := k*stretch + r.IntN(stretch-1)
			order[i], order[i+1] = order[i+1], order[i]
		}
	}
	out := make([]byte, 0, len(prev)+len(prev)/16)
	for _, p := range order {
		out = appendPatched(r, out, prev[p*firmwarePiece:min((p+1)*firmwarePiece, len(prev))])
	}
	c.cur = out
	return out
}

// appendPatched appends seg to out with two byte-level edits.
func appendPatched(r *rand.Rand, out, seg []byte) []byte {
	at := 0
	for k := 2; k > 0 && at < len(seg); k-- {
		pos := at + r.IntN(len(seg)-at)
		out = append(out, seg[at:pos]...)
		n := 1 + r.IntN(256)
		switch r.IntN(3) {
		case 0: // overwrite
			out = appendRandom(r, out, min(n, len(seg)-pos))
			pos += n
		case 1: // insert
			out = appendRandom(r, out, n)
		default: // delete
			pos += n
		}
		at = min(pos, len(seg))
	}
	return append(out, seg[at:]...)
}

const (
	recordSize  = 128
	recordKey   = 8
	recordMoves = 24
)

// recordChain makes record-structured releases of 128-byte records, each
// an 8-byte key and random payload. A release updates, inserts or deletes
// about 5% of the records, a third each, and moves 24 runs of 8 to 64
// records to new positions; the moves give the in-place converter its
// cycles.
type recordChain struct {
	r       *rand.Rand
	size    int
	cur     []byte
	nextKey uint64
}

func newRecordChain(seed int64, size int) *recordChain {
	return &recordChain{r: newRand(seed, streamImages), size: size}
}

func (c *recordChain) appendRecord(out []byte) []byte {
	out = binary.BigEndian.AppendUint64(out, c.nextKey)
	c.nextKey++
	return appendRandom(c.r, out, recordSize-recordKey)
}

func (c *recordChain) next() []byte {
	if c.cur == nil {
		c.cur = make([]byte, 0, c.size)
		for i := 0; i < c.size/recordSize; i++ {
			c.cur = c.appendRecord(c.cur)
		}
		return c.cur
	}
	prev, r := c.cur, c.r
	n := len(prev) / recordSize
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for m := 0; m < recordMoves; m++ {
		l := 8 + r.IntN(57)
		if l >= n {
			continue
		}
		a := r.IntN(n - l + 1)
		run := slices.Clone(order[a : a+l])
		rest := slices.Concat(order[:a], order[a+l:])
		d := r.IntN(len(rest) + 1)
		order = slices.Concat(rest[:d], run, rest[d:])
	}
	const (
		update = iota + 1
		remove
		insert
	)
	action := make([]byte, n)
	for k := 0; k < n/20; k++ {
		action[r.IntN(n)] = byte(update + r.IntN(3))
	}
	out := make([]byte, 0, len(prev)+len(prev)/16)
	for _, i := range order {
		rec := prev[i*recordSize : (i+1)*recordSize]
		switch action[i] {
		case remove:
			continue
		case update:
			at := len(out)
			out = append(out, rec...)
			lo := recordKey + r.IntN(recordSize-recordKey)
			hi := lo + 1 + r.IntN(recordSize-lo)
			fillRandom(r, out[at+lo:at+hi])
		default:
			out = append(out, rec...)
		}
		if action[i] == insert {
			out = c.appendRecord(out)
		}
	}
	c.cur = out
	return out
}

// blockChain makes the publish releases: a random base, and each release
// rewrites 5% of the image in 32 KiB blocks. It keeps two buffers, so a
// release stays valid only until the call after the one that returned it.
type blockChain struct {
	r          *rand.Rand
	size       int
	cur, spare []byte
}

const publishBlock = 32 << 10

func newBlockChain(seed int64, size int) *blockChain {
	return &blockChain{r: newRand(seed, streamImages), size: size}
}

func (c *blockChain) next() []byte {
	if c.cur == nil {
		c.cur = make([]byte, c.size)
		fillRandom(c.r, c.cur)
		return c.cur
	}
	out := append(c.spare[:0], c.cur...)
	blocks := len(out) / publishBlock
	for k := 0; k < blocks/20; k++ {
		b := c.r.IntN(blocks)
		fillRandom(c.r, out[b*publishBlock:(b+1)*publishBlock])
	}
	c.spare, c.cur = c.cur, out
	return out
}

// checkDeterminism regenerates the first len(want) releases from a fresh
// chain and compares their CRCs with the ones the run recorded.
func checkDeterminism(c chain, want []uint32) error {
	for k, w := range want {
		if got := crc32.ChecksumIEEE(c.next()); got != w {
			return fmt.Errorf("release %d regenerates with crc %08x, the run had %08x: the generator is not deterministic", k, got, w)
		}
	}
	return nil
}

package corpus

import (
	"encoding/binary"
	"math/rand"
	"slices"
)

// Record-release chain geometry: 128-byte records with an 8-byte key.
const (
	recordSize  = 128
	recordKey   = 8
	recordMoves = 24
)

// RecordChain returns releases consecutive releases of a record-structured
// image of about size bytes: 128-byte records, each an 8-byte key and a
// random payload. Every release after the first updates, removes or
// inserts about 5% of the records (a third each) and moves 24 runs of 8 to
// 64 records to new positions. The run moves are what make in-place
// conversion break hundreds of cycles per delta: a delta between releases
// k apart is the cyclic, record-structured input a rollout server diffs
// and converts.
func RecordChain(seed int64, size, releases int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var key uint64
	appendRecord := func(out []byte) []byte {
		out = binary.BigEndian.AppendUint64(out, key)
		key++
		at := len(out)
		out = append(out, make([]byte, recordSize-recordKey)...)
		rng.Read(out[at:])
		return out
	}
	var cur []byte
	for i := 0; i < size/recordSize; i++ {
		cur = appendRecord(cur)
	}
	chain := [][]byte{cur}
	for len(chain) < releases {
		prev := chain[len(chain)-1]
		n := len(prev) / recordSize
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for m := 0; m < recordMoves; m++ {
			l := 8 + rng.Intn(57)
			if l >= n {
				continue
			}
			a := rng.Intn(n - l + 1)
			run := slices.Clone(order[a : a+l])
			rest := slices.Concat(order[:a], order[a+l:])
			d := rng.Intn(len(rest) + 1)
			order = slices.Concat(rest[:d], run, rest[d:])
		}
		const (
			update = iota + 1
			remove
			insert
		)
		action := make([]byte, n)
		for k := 0; k < n/20; k++ {
			action[rng.Intn(n)] = byte(update + rng.Intn(3))
		}
		next := make([]byte, 0, len(prev)+len(prev)/16)
		for _, i := range order {
			rec := prev[i*recordSize : (i+1)*recordSize]
			switch action[i] {
			case remove:
				continue
			case update:
				at := len(next)
				next = append(next, rec...)
				lo := recordKey + rng.Intn(recordSize-recordKey)
				hi := lo + 1 + rng.Intn(recordSize-lo)
				rng.Read(next[at+lo : at+hi])
			default:
				next = append(next, rec...)
			}
			if action[i] == insert {
				next = appendRecord(next)
			}
		}
		chain = append(chain, next)
	}
	return chain
}

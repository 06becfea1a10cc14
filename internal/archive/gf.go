// Package archive implements the durable archive that store.Store.Archive
// exports a version history into: delta-chain segments are striped as systematic Reed–Solomon code words
// over GF(2^8) across simulated storage nodes, so every archived version
// survives up to m node losses and silent shard corruption. The package
// follows Harshan/Datta/Oggier's compressed differential erasure coding
// of versioned data (arXiv:1503.05434): the units being erasure-coded are
// *delta-compressed* segment blobs, not full images, so the redundancy
// overhead is paid on the compressed representation.
//
// The pieces:
//
//   - a Coder encodes k data shards into k+m total shards and rebuilds the
//     originals from any k survivors (rs.go);
//   - a Node is one simulated storage target with seeded fault injection —
//     crash, wipe, bit-rot, truncation, transient I/O — in the
//     FaultyStore/FlakyConn tradition (node.go);
//   - an Archive stripes blobs across nodes with per-shard CRCs, serves
//     degraded reads from any k of n shards, and provides scrub (verify
//     every shard) and repair (re-encode missing or corrupt shards from
//     surviving peers) passes (archive.go).
package archive

// GF(2^8) arithmetic over the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the field used by virtually every byte-oriented Reed–Solomon
// deployment. gfExp is doubled so gfMul can index log(a)+log(b) without a
// modular reduction.
var (
	gfExp [510]byte
	gfLog [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfExp[i+255] = x
		gfLog[x] = byte(i)
		// Multiply x by the generator 2 in GF(2^8).
		high := x&0x80 != 0
		x <<= 1
		if high {
			x ^= 0x1d
		}
	}
}

// gfMul returns a·b in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a. a must be non-zero.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// gfDiv returns a/b in GF(2^8). b must be non-zero.
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// mulAddRow accumulates c·src into dst (dst[i] ^= c·src[i]), the inner
// loop of both encoding and reconstruction.
func mulAddRow(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range src {
			dst[i] ^= src[i]
		}
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}

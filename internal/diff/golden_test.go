package diff

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"ipdelta/internal/chunk"
	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
)

// goldenDigest accumulates the ordered encodings of a sequence of deltas
// into one SHA-256.
type goldenDigest struct {
	t   *testing.T
	sum []byte
	n   int
}

func (g *goldenDigest) add(d *delta.Delta, err error) {
	g.t.Helper()
	if err != nil {
		g.t.Fatal(err)
	}
	h := sha256.New()
	h.Write(g.sum)
	if _, err := codec.Encode(h, d, codec.FormatOrdered); err != nil {
		g.t.Fatal(err)
	}
	g.sum = h.Sum(nil)
	g.n++
}

func (g *goldenDigest) check(name, want string) {
	g.t.Helper()
	if got := hex.EncodeToString(g.sum); got != want {
		g.t.Errorf("%s: ordered encodings of %d deltas hash to %s, want %s", name, g.n, got, want)
	}
}

// blockChurn returns a random image of size bytes and a copy with 5% of
// its 4 KiB blocks rewritten. From 4 MiB up the reference has more
// anchors than the largest fingerprint table has buckets, so most scan
// probes land in occupied buckets holding a different seed.
func blockChurn(seed int64, size int) (ref, version []byte) {
	rng := rand.New(rand.NewSource(seed))
	ref = make([]byte, size)
	rng.Read(ref)
	version = append([]byte(nil), ref...)
	const block = 4 << 10
	nblocks := size / block
	for k := 0; k < nblocks/20; k++ {
		at := rng.Intn(nblocks) * block
		rng.Read(version[at : at+block])
	}
	return ref, version
}

// TestGoldenDeltas pins the exact output of Linear.Diff and DiffRecipes
// (over default-chunked recipes): the SHA-256 of their ordered encodings
// over the standard corpus, a record-release chain and a
// table-saturating 4 MiB block-churn pair.
// Changes to the fingerprint table or the scan that are meant to be pure
// speedups must leave every one of these hashes unchanged.
func TestGoldenDeltas(t *testing.T) {
	l := NewLinear()

	g := goldenDigest{t: t}
	for _, p := range corpus.StandardCorpus(1) {
		g.add(l.Diff(p.Ref, p.Version))
	}
	g.check("linear/standard-corpus", "7fab5046b77f32c72b7d9ec4d6e71e0ce565e1b4e1bfa4f1d004657d8612ff9b")

	chain := corpus.RecordChain(7, 1<<20, 4)
	head := chain[len(chain)-1]
	g = goldenDigest{t: t}
	for _, old := range chain[:len(chain)-1] {
		g.add(l.Diff(old, head))
	}
	g.check("linear/records", "4715cf8d5ab6510d6ec0a5240692e03ee382bfd32bdeed93c7f4dd30de16008d")
	ck, err := chunk.NewChunker(chunk.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cs := chunk.NewStore()
	rd := NewRecipeDiffer()
	rhead := cs.IngestAll(ck, head)
	g = goldenDigest{t: t}
	for _, old := range chain[:len(chain)-1] {
		g.add(rd.DiffRecipes(cs.IngestAll(ck, old), rhead, cs))
	}
	g.check("recipe/records", "32d6d1a22b4639bb7d0f60cbb98609b3ef82c52da000855e6735da16b7f093c4")

	ref, version := blockChurn(3, 4<<20)
	g = goldenDigest{t: t}
	g.add(l.Diff(ref, version))
	g.check("linear/block-churn-4MiB", "437ac1ca818944c7d19f1e298d757d52b5a364203b291971043c510b4b338489")
	g = goldenDigest{t: t}
	cs = chunk.NewStore()
	g.add(rd.DiffRecipes(cs.IngestAll(ck, ref), cs.IngestAll(ck, version), cs))
	g.check("recipe/block-churn-4MiB", "aaf1d973006ae17252ea72567aa380b4813a54fd296dbbdfd6d1dedb79517d37")
}

package chunk

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
)

// smallRecipe builds a short but non-trivial encoded recipe for hostile
// mutation tests.
func smallRecipe(t testing.TB) (Recipe, []byte) {
	t.Helper()
	var r Recipe
	for k := 0; k < 5; k++ {
		data := randBytes(int64(200+k), 512+137*k)
		r.Chunks = append(r.Chunks, RefOf(data))
	}
	return r, EncodeRecipe(r)
}

// reseal recomputes the trailer CRC of an encoded recipe so mutations of
// the body reach the structural validators instead of stopping at the
// container checksum.
func reseal(enc []byte) []byte {
	body := enc[:len(enc)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestRecipeCodecRoundtrip(t *testing.T) {
	r, enc := smallRecipe(t)
	got, err := DecodeRecipe(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != len(r.Chunks) {
		t.Fatalf("decoded %d chunks, want %d", len(got.Chunks), len(r.Chunks))
	}
	for k := range got.Chunks {
		if got.Chunks[k] != r.Chunks[k] {
			t.Fatalf("chunk %d roundtrip mismatch", k)
		}
	}
	// The empty recipe is legal (an empty file's version).
	empty, err := DecodeRecipe(EncodeRecipe(Recipe{}))
	if err != nil || len(empty.Chunks) != 0 {
		t.Fatalf("empty recipe roundtrip: %v", err)
	}
}

// TestDecodeRecipeHostile feeds hand-built hostile containers — the
// same discipline as the store container's hostile suite: every case
// must error, never panic, never over-allocate.
func TestDecodeRecipeHostile(t *testing.T) {
	_, enc := smallRecipe(t)
	uv := func(v uint64) []byte {
		var tmp [binary.MaxVarintLen64]byte
		return append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic only", []byte("IPRC")},
		{"wrong magic", append([]byte("XXXX"), enc[4:]...)},
		{"future version", reseal(append(append([]byte("IPRC"), 99), enc[5:len(enc)-4]...))},
		{"bad trailer crc", func() []byte {
			d := append([]byte(nil), enc...)
			d[len(d)-1] ^= 0xFF
			return d
		}()},
		// A count vastly beyond what the input can carry must be rejected
		// before the decoder allocates for it.
		{"absurd count", reseal(append(append(append([]byte("IPRC"), recipeFormatVersion), uv(1<<62)...), uv(0)...))},
		{"count with no chunks", reseal(append(append(append([]byte("IPRC"), recipeFormatVersion), uv(3)...), uv(100)...))},
		{"zero-length chunk", reseal(append(append(append(append(append(
			[]byte("IPRC"), recipeFormatVersion), uv(1)...), uv(0)...),
			append(make([]byte, 32), uv(0)...)...), 0, 0, 0, 0))},
		{"oversize chunk length", reseal(append(append(append(append(append(
			[]byte("IPRC"), recipeFormatVersion), uv(1)...), uv(1<<40)...),
			append(make([]byte, 32), uv(1<<40)...)...), 0, 0, 0, 0))},
		{"total disagrees with sum", func() []byte {
			d := append([]byte(nil), enc...)
			// total-length uvarint starts after magic+version+count varint.
			_, n := binary.Uvarint(d[5:])
			d[5+n] ^= 0x01
			return reseal(d)
		}()},
		{"trailing garbage", reseal(append(enc[:len(enc)-4], 0xAA))},
	}
	for _, tc := range cases {
		if _, err := DecodeRecipe(tc.data); err == nil {
			t.Errorf("%s: hostile container accepted", tc.name)
		}
	}
}

// TestDecodeRecipeTruncations checks every possible truncation of a
// valid container: each must be rejected cleanly.
func TestDecodeRecipeTruncations(t *testing.T) {
	_, enc := smallRecipe(t)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeRecipe(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeRecipeBitFlips flips every bit of a valid container. Each
// result either fails to decode or decodes to something that differs
// from the original — a flip must never be silently absorbed.
func TestDecodeRecipeBitFlips(t *testing.T) {
	want, enc := smallRecipe(t)
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			got, err := DecodeRecipe(mut)
			if err != nil {
				continue
			}
			same := len(got.Chunks) == len(want.Chunks)
			for k := 0; same && k < len(got.Chunks); k++ {
				same = got.Chunks[k] == want.Chunks[k]
			}
			if same {
				t.Fatalf("bit flip at byte %d bit %d silently absorbed", i, bit)
			}
		}
	}
}

// FuzzRecipeDecode is the recipe mirror of FuzzStoreLoad: DecodeRecipe
// must never panic, and accepted input must re-encode/re-decode stably.
func FuzzRecipeDecode(f *testing.F) {
	_, enc := smallRecipe(f)
	f.Add(enc)
	f.Add(EncodeRecipe(Recipe{}))
	f.Add([]byte("IPRC"))
	f.Add(enc[:len(enc)/2])
	mut := append([]byte(nil), enc...)
	mut[9] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecipe(data)
		if err != nil {
			return
		}
		again, err := DecodeRecipe(EncodeRecipe(r))
		if err != nil {
			t.Fatalf("accepted recipe fails to re-decode: %v", err)
		}
		if len(again.Chunks) != len(r.Chunks) {
			t.Fatalf("re-decode chunk count drifted: %d vs %d", len(again.Chunks), len(r.Chunks))
		}
		for k := range again.Chunks {
			if again.Chunks[k] != r.Chunks[k] {
				t.Fatalf("re-decode chunk %d drifted", k)
			}
		}
	})
}

// FuzzChunkerSplit feeds arbitrary bytes through both chunking faces:
// chunks must cover the input exactly, respect bounds, and the store's
// batched ingest must cut where Split does.
func FuzzChunkerSplit(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0}, 5000))
	f.Add(randBytes(1, 20000))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewChunker(Params{Min: 64, Avg: 256, Max: 1024})
		if err != nil {
			t.Fatal(err)
		}
		var rejoined []byte
		var cuts []int
		c.Split(data, func(ch []byte) {
			if len(ch) > 1024 || len(ch) == 0 {
				t.Fatalf("chunk size %d out of bounds", len(ch))
			}
			rejoined = append(rejoined, ch...)
			cuts = append(cuts, len(rejoined))
		})
		if !bytes.Equal(rejoined, data) {
			t.Fatal("chunks do not reproduce input")
		}
		r := NewStore().IngestAll(c, data)
		if len(r.Chunks) != len(cuts) {
			t.Fatalf("ingest produced %d chunks, Split %d", len(r.Chunks), len(cuts))
		}
		var off int
		for k, ch := range r.Chunks {
			if off += int(ch.Length); off != cuts[k] {
				t.Fatalf("cut %d: ingest %d vs Split %d", k, off, cuts[k])
			}
		}
	})
}

// editScript applies n seeded edits to a copy of old: overwrites,
// inserts of fresh or repeated bytes, deletes, truncations and appends.
func editScript(old []byte, seed int64, n uint8) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(old)
	span := func() int { return 1 + rng.Intn(3000) }
	for range n {
		at := rng.Intn(len(out) + 1)
		switch rng.Intn(6) {
		case 0: // overwrite
			rng.Read(out[at:min(at+span(), len(out))])
		case 1: // insert fresh bytes
			out = slices.Insert(out, at, randBytes(rng.Int63(), span())...)
		case 2: // insert a copy of bytes already there
			from := rng.Intn(len(out) + 1)
			out = slices.Insert(out, at, slices.Clone(out[from:min(from+span(), len(out))])...)
		case 3: // delete
			out = slices.Delete(out, at, min(at+span(), len(out)))
		case 4: // truncate
			out = out[:at]
		default: // append
			out = append(out, randBytes(rng.Int63(), span())...)
		}
	}
	return out
}

// FuzzIngestLike ingests a seeded edit of random old bytes against old's
// recipe: the recipe and the resident set must be IngestAll's, whether
// like is pinned, released or evicted.
func FuzzIngestLike(f *testing.F) {
	f.Add(randBytes(2, 20000), int64(1), uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 3000), int64(2), uint8(5), uint8(1))
	f.Add(make([]byte, 9000), int64(3), uint8(1), uint8(2))
	f.Add([]byte{}, int64(4), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, old []byte, seed int64, edits, mode uint8) {
		ck, err := NewChunker(Params{Min: 64, Avg: 256, Max: 1024})
		if err != nil {
			t.Fatal(err)
		}
		next := editScript(old, seed, edits%16)
		run := func(ingest func(s *Store, like Recipe) Recipe) (Recipe, Stats) {
			s := NewStore(WithMaxUnpinned(1 << 20))
			like := s.IngestAll(ck, old)
			switch mode % 3 {
			case 1:
				s.ReleaseRecipe(like)
			case 2:
				s.maxUnpin = 2048
				s.ReleaseRecipe(like)
			}
			return ingest(s, like), s.Stats()
		}
		want, wantStats := run(func(s *Store, _ Recipe) Recipe { return s.IngestAll(ck, next) })
		got, stats := run(func(s *Store, like Recipe) Recipe { return s.IngestLike(ck, next, like) })
		if !slices.Equal(got.Chunks, want.Chunks) {
			t.Fatalf("recipe of %d chunks differs from IngestAll's %d", len(got.Chunks), len(want.Chunks))
		}
		if stats != wantStats {
			t.Fatalf("stats %+v, want %+v", stats, wantStats)
		}
	})
}

package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ipdelta/internal/chunk"
	"ipdelta/internal/obs"
	"ipdelta/internal/stats"
)

// cmdChunk splits files with the content-defined chunker and reports the
// chunk-level view: sizes, dedup across the given files (in order), and
// optionally the recipe container of the last file. Each file is ingested
// against the recipe of the file before it.
func cmdChunk(args []string) error {
	fs := flag.NewFlagSet("chunk", flag.ContinueOnError)
	minSize := fs.Int("min", chunk.DefaultMin, "minimum chunk size")
	avgSize := fs.Int("avg", chunk.DefaultAvg, "target average chunk size (power of two)")
	maxSize := fs.Int("max", chunk.DefaultMax, "maximum chunk size")
	outPath := fs.String("out", "", "write the last file's recipe container to this path")
	verbose := fs.Bool("v", false, "print the full metrics snapshot (chunk-size histogram) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return errors.New("usage: ipdelta chunk [-min N] [-avg N] [-max N] [-out RECIPE] FILE...")
	}
	ck, err := chunk.NewChunker(chunk.Params{Min: *minSize, Avg: *avgSize, Max: *maxSize})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	cs := chunk.NewStore(chunk.WithObserver(reg))
	var last chunk.Recipe
	var totalIn int64
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		before := reg.Snapshot().Counters
		r := cs.IngestLike(ck, data, last)
		after := reg.Snapshot().Counters
		newBytes := after["ipdelta_chunk_stored_bytes_total"] - before["ipdelta_chunk_stored_bytes_total"]
		dupBytes := after["ipdelta_chunk_dedup_bytes_saved_total"] - before["ipdelta_chunk_dedup_bytes_saved_total"]
		avg := int64(0)
		if len(r.Chunks) > 0 {
			avg = r.Total() / int64(len(r.Chunks))
		}
		fmt.Printf("%s: %s in %d chunks (avg %s), %s new, %s deduped\n",
			path, stats.Bytes(r.Total()), len(r.Chunks), stats.Bytes(avg),
			stats.Bytes(newBytes), stats.Bytes(dupBytes))
		last = r
		totalIn += r.Total()
	}
	snap := reg.Snapshot().Counters
	stored := snap["ipdelta_chunk_stored_bytes_total"]
	if totalIn > 0 {
		fmt.Printf("total: %s ingested, %s stored (dedup ratio %.2fx)\n",
			stats.Bytes(totalIn), stats.Bytes(stored),
			float64(totalIn)/float64(max64(1, stored)))
	}
	if *outPath != "" {
		enc := chunk.EncodeRecipe(last)
		if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s): recipe of %s, %d chunks\n",
			*outPath, stats.Bytes(int64(len(enc))), files[len(files)-1], len(last.Chunks))
	}
	if *verbose {
		fmt.Fprint(os.Stderr, reg.Snapshot().Text())
	}
	return nil
}

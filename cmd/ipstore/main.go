// Command ipstore manages a delta-chain version store: a container file
// holding a base image plus one delta per release. Any version can be
// extracted, and a direct in-place delta can be emitted from any stored
// version to the newest — the server-side companion to in-place patching.
//
// Usage:
//
//	ipstore init    -store FILE -base IMAGE
//	ipstore append  -store FILE -version IMAGE
//	ipstore info    -store FILE
//	ipstore extract -store FILE -index N -out IMAGE
//	ipstore delta   -store FILE -from N [-to M] -out DELTA [-inplace] [-policy P]
//	ipstore rollback -store FILE -to N -out DELTA [-policy P]
//	ipstore serve   -store FILE [-listen ADDR] [-cache MIB] [-chunked] [-v]
//
// serve exposes the store over HTTP: GET /info (JSON census), GET
// /version/{n} (raw image), GET /delta?from=N (compact in-place delta to
// the newest version), and GET /metrics (request and codec counters,
// Prometheus-style text or JSON with ?format=json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ipdelta/internal/codec"
	"ipdelta/internal/graph"
	"ipdelta/internal/stats"
	"ipdelta/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ipstore:", err)
		os.Exit(1)
	}
}

const usage = "usage: ipstore {init|append|info|extract|delta|rollback|serve} [flags]"

func run(args []string) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	switch args[0] {
	case "init":
		return cmdInit(args[1:])
	case "append":
		return cmdAppend(args[1:])
	case "info":
		return cmdStoreInfo(args[1:])
	case "extract":
		return cmdExtract(args[1:])
	case "delta":
		return cmdDelta(args[1:])
	case "rollback":
		return cmdRollback(args[1:])
	case "serve":
		return cmdServe(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q; %s", args[0], usage)
	}
}

func loadStore(path string, opts ...store.Option) (*store.Store, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return store.Load(blob, opts...)
}

func saveStore(path string, s *store.Store) error {
	blob, err := s.Save()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file to create")
	basePath := fs.String("base", "", "base image")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" || *basePath == "" {
		return errors.New("init: -store and -base are required")
	}
	base, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	s := store.New(base)
	if err := saveStore(*storePath, s); err != nil {
		return err
	}
	fmt.Printf("initialized %s with base %s (%s)\n", *storePath, *basePath, stats.Bytes(int64(len(base))))
	return nil
}

func cmdAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file")
	versionPath := fs.String("version", "", "new version image")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" || *versionPath == "" {
		return errors.New("append: -store and -version are required")
	}
	s, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	version, err := os.ReadFile(*versionPath)
	if err != nil {
		return err
	}
	idx, err := s.AppendVersion(version)
	if err != nil {
		return err
	}
	if err := saveStore(*storePath, s); err != nil {
		return err
	}
	fmt.Printf("appended version %d (%s)\n", idx, stats.Bytes(int64(len(version))))
	return nil
}

func cmdStoreInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return errors.New("info: -store is required")
	}
	s, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	storage, err := s.StorageBytes()
	if err != nil {
		return err
	}
	fmt.Printf("versions: %d\n", s.NumVersions())
	for k := 0; k < s.NumVersions(); k++ {
		crc, length, err := s.CRC(k)
		if err != nil {
			return err
		}
		fmt.Printf("  %3d: %s crc32=%08x\n", k, stats.Bytes(length), crc)
	}
	fmt.Printf("chain storage: %s (full copies would be %s, %.1fx saving)\n",
		stats.Bytes(storage), stats.Bytes(s.FullBytes()),
		float64(s.FullBytes())/float64(storage))
	return nil
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file")
	index := fs.Int("index", -1, "version index")
	outPath := fs.String("out", "", "output image file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" || *index < 0 || *outPath == "" {
		return errors.New("extract: -store, -index and -out are required")
	}
	s, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	img, err := s.Version(*index)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, img, 0o644); err != nil {
		return err
	}
	fmt.Printf("extracted version %d to %s (%s)\n", *index, *outPath, stats.Bytes(int64(len(img))))
	return nil
}

func cmdRollback(args []string) error {
	fs := flag.NewFlagSet("rollback", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file")
	to := fs.Int("to", -1, "version index to roll back to")
	outPath := fs.String("out", "", "output delta file")
	policyName := fs.String("policy", "locally-minimum", "cycle-breaking policy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" || *to < 0 || *outPath == "" {
		return errors.New("rollback: -store, -to and -out are required")
	}
	s, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	policy, err := graph.PolicyByName(*policyName)
	if err != nil {
		return err
	}
	d, st, err := s.RollbackDelta(*to, policy)
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	n, err := codec.Encode(f, d, codec.FormatCompact)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, compact): newest -> version %d, %d copies converted\n",
		*outPath, stats.Bytes(n), *to, st.ConvertedCopies)
	return nil
}

func cmdDelta(args []string) error {
	fs := flag.NewFlagSet("delta", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file")
	from := fs.Int("from", -1, "source version index")
	to := fs.Int("to", -1, "target version index (default: newest)")
	outPath := fs.String("out", "", "output delta file")
	inPlace := fs.Bool("inplace", false, "convert for in-place reconstruction")
	policyName := fs.String("policy", "locally-minimum", "cycle-breaking policy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" || *from < 0 || *outPath == "" {
		return errors.New("delta: -store, -from and -out are required")
	}
	s, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	target := *to
	if target < 0 {
		target = s.NumVersions() - 1
	}
	d, err := s.DeltaBetween(*from, target)
	if err != nil {
		return err
	}
	format := codec.FormatOrdered
	if *inPlace {
		policy, err := graph.PolicyByName(*policyName)
		if err != nil {
			return err
		}
		if target != s.NumVersions()-1 {
			return errors.New("delta: -inplace currently targets the newest version")
		}
		d, _, err = s.InPlaceDeltaTo(*from, policy)
		if err != nil {
			return err
		}
		format = codec.FormatCompact
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	n, err := codec.Encode(f, d, format)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %s): version %d -> %d\n", *outPath, stats.Bytes(n), format, *from, target)
	return nil
}

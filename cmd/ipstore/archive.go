package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ipdelta/internal/archive"
	"ipdelta/internal/stats"
	"ipdelta/internal/store"
)

// archiveManifest is the on-disk description of an archived store: the
// striping parameters plus the archive's own stripe metadata. It lives as
// MANIFEST.json at the root of the archive directory, next to one
// nodeNN/ directory per shard index.
type archiveManifest struct {
	SegmentSize int               `json:"segment_size"`
	UpTo        int               `json:"archived_up_to"`
	Archive     *archive.Manifest `json:"archive"`
}

const manifestName = "MANIFEST.json"

// nodeDir names the directory holding node i's shards.
func nodeDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("node%02d", i))
}

// shardFile names one shard inside a node directory.
func shardFile(id archive.ShardID) string {
	return fmt.Sprintf("s%08d-i%02d.shard", id.Stripe, id.Index)
}

// saveNodes persists every live node's shards under dir/nodeNN/.
func saveNodes(dir string, nodes []*archive.Node) error {
	for i, n := range nodes {
		if n.Down() {
			continue
		}
		nd := nodeDir(dir, i)
		if err := os.MkdirAll(nd, 0o755); err != nil {
			return err
		}
		for _, id := range n.ShardIDs() {
			b, err := n.Get(id)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(nd, shardFile(id)), b, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// shardGlob matches every shard file of an archive directory.
const shardGlob = "node[0-9][0-9]/s*-i*.shard"

// loadArchiveDir reopens an archive directory: the manifest plus one node
// per shard index. A missing node directory loads as an empty node — its
// shards scrub as missing, reads degrade to k-of-n, and -repair rebuilds
// the directory from the survivors. Only shards of stripes the manifest
// lists are read.
func loadArchiveDir(dir string) (*archiveManifest, *archive.Archive, []*archive.Node, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, nil, err
	}
	var man archiveManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, nil, nil, fmt.Errorf("archive manifest: %w", err)
	}
	if man.Archive == nil || man.SegmentSize <= 0 {
		return nil, nil, nil, errors.New("archive manifest: missing striping parameters")
	}
	n := man.Archive.DataShards + man.Archive.ParityShards
	if n <= 0 || n > 128 {
		return nil, nil, nil, errors.New("archive manifest: bad shard counts")
	}
	listed := make(map[uint64]bool, len(man.Archive.Stripes))
	for _, si := range man.Archive.Stripes {
		listed[si.ID] = true
	}
	nodes := make([]*archive.Node, n)
	for i := range nodes {
		nodes[i] = archive.NewNode(i)
		nd := nodeDir(dir, i)
		entries, err := os.ReadDir(nd)
		if err != nil {
			// A lost node directory is an empty-but-replaceable node: its
			// shards read as missing, and -repair rebuilds the directory.
			continue
		}
		for _, e := range entries {
			var stripeID uint64
			var idx int
			if _, err := fmt.Sscanf(e.Name(), "s%08d-i%02d.shard", &stripeID, &idx); err != nil || idx != i || !listed[stripeID] {
				continue // foreign file; the shard stays missing
			}
			b, err := os.ReadFile(filepath.Join(nd, e.Name()))
			if err != nil {
				continue
			}
			if err := nodes[i].Put(archive.ShardID{Stripe: stripeID, Index: idx}, b); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	a, err := archive.Open(nodes, man.Archive)
	if err != nil {
		return nil, nil, nil, err
	}
	return &man, a, nodes, nil
}

// cmdArchive stripes a store's cold history across erasure-coded node
// directories and writes the manifest that scrub/restore need.
func cmdArchive(args []string) error {
	fs := flag.NewFlagSet("archive", flag.ContinueOnError)
	storePath := fs.String("store", "", "store file")
	dir := fs.String("dir", "", "archive directory to create (must hold no archive)")
	upTo := fs.Int("up-to", -1, "archive versions [0..N] (default: all)")
	data := fs.Int("data", 4, "data shards (k)")
	parity := fs.Int("parity", 2, "parity shards (m)")
	segment := fs.Int("segment", store.DefaultArchiveSegment, "versions per archived segment (> 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" || *dir == "" {
		return errors.New("archive: -store and -dir are required")
	}
	// An archive never lands on another: its shards would mix with the
	// old one's, which the new manifest does not list.
	shards, err := filepath.Glob(filepath.Join(*dir, shardGlob))
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(*dir, manifestName)); err == nil || len(shards) > 0 {
		return fmt.Errorf("archive: %s already holds an archive", *dir)
	}
	a, nodes, err := archive.NewWithNodes(*data, *parity)
	if err != nil {
		return err
	}
	s, err := loadStore(*storePath)
	if err != nil {
		return err
	}
	target := *upTo
	if target < 0 {
		target = s.NumVersions() - 1
	}
	archived, err := s.Archive(a, target, *segment)
	if err != nil {
		return err
	}
	if archived < 0 {
		return fmt.Errorf("archive: nothing to archive below version %d (segment size %d)", target, *segment)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if err := saveNodes(*dir, nodes); err != nil {
		return err
	}
	man := archiveManifest{
		SegmentSize: *segment,
		UpTo:        archived,
		Archive:     a.Manifest(),
	}
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, manifestName), raw, 0o644); err != nil {
		return err
	}
	var shardBytes int64
	for _, n := range nodes {
		for _, id := range n.ShardIDs() {
			b, err := n.Get(id)
			if err != nil {
				return err
			}
			shardBytes += int64(len(b))
		}
	}
	fmt.Printf("archived versions 0..%d into %s: %d stripes over %d nodes (k=%d m=%d), %s of shards\n",
		archived, *dir, len(a.Stripes()), len(nodes), *data, *parity, stats.Bytes(shardBytes))
	return nil
}

// cmdScrub verifies an archive directory shard-by-shard and optionally
// repairs it in place and re-verifies every archived version.
func cmdScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	dir := fs.String("dir", "", "archive directory")
	repair := fs.Bool("repair", false, "rebuild bad shards and rewrite node directories")
	verify := fs.Bool("verify", false, "reconstruct every archived version and check identities")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("scrub: -dir is required")
	}
	man, a, nodes, err := loadArchiveDir(*dir)
	if err != nil {
		return err
	}
	rep := a.Scrub()
	fmt.Println(rep)
	if *repair {
		rr := a.Repair()
		fmt.Println(rr)
		if err := saveNodes(*dir, nodes); err != nil {
			return err
		}
		if post := a.Scrub(); !post.Clean() {
			return fmt.Errorf("scrub: still dirty after repair: %s", post)
		}
	}
	if *verify {
		versions := 0
		for _, id := range a.Stripes() {
			blob, err := a.Get(id)
			if err != nil {
				return fmt.Errorf("scrub: stripe %d: %w", id, err)
			}
			seg, err := store.DecodeArchiveSegment(blob)
			if err != nil {
				return fmt.Errorf("scrub: stripe %d: %w", id, err)
			}
			for v := seg.Lo; v <= seg.Hi; v++ {
				if _, err := seg.Version(v); err != nil {
					return fmt.Errorf("scrub: version %d: %w", v, err)
				}
				versions++
			}
		}
		fmt.Printf("verified %d archived versions (up to v%d)\n", versions, man.UpTo)
	}
	if !*repair && !rep.Clean() {
		return fmt.Errorf("scrub: %d bad shards (run with -repair)", rep.Missing+rep.Corrupt)
	}
	if rep.Unrecoverable > 0 {
		return fmt.Errorf("scrub: %d stripes unrecoverable", rep.Unrecoverable)
	}
	return nil
}

// cmdRestore reconstructs one archived version purely from the shards in
// an archive directory — degraded k-of-n reads included — without needing
// the original store file.
func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	dir := fs.String("dir", "", "archive directory")
	index := fs.Int("index", -1, "version index to restore")
	outPath := fs.String("out", "", "output image file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *index < 0 || *outPath == "" {
		return errors.New("restore: -dir, -index and -out are required")
	}
	man, a, _, err := loadArchiveDir(*dir)
	if err != nil {
		return err
	}
	if *index > man.UpTo {
		return fmt.Errorf("restore: version %d beyond archived history (up to %d)", *index, man.UpTo)
	}
	img, replays, err := store.ReadArchived(a, man.SegmentSize, *index)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, img, 0o644); err != nil {
		return err
	}
	fmt.Printf("restored version %d to %s (%s, %d reverse deltas)\n",
		*index, *outPath, stats.Bytes(int64(len(img))), replays)
	return nil
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ipdelta/internal/archive"
)

// buildArchivedStore inits a store with n versions and archives it into
// dir with the given coding shape, returning the versions.
func buildArchivedStore(t *testing.T, dir string, n, k, m, segment int) [][]byte {
	t.Helper()
	versions, storePath := buildStoreFile(t, dir, n)
	if err := run([]string{
		"archive", "-store", storePath, "-dir", filepath.Join(dir, "arch"),
		"-data", strconv.Itoa(k), "-parity", strconv.Itoa(m),
		"-segment", strconv.Itoa(segment),
	}); err != nil {
		t.Fatal(err)
	}
	return versions
}

// buildStoreFile inits dir/releases.ipst with n versions and returns the
// versions and the store's path.
func buildStoreFile(t *testing.T, dir string, n int) ([][]byte, string) {
	t.Helper()
	versions := makeVersions(t, n)
	storePath := filepath.Join(dir, "releases.ipst")
	basePath := writeTemp(t, dir, "v0.img", versions[0])
	if err := run([]string{"init", "-store", storePath, "-base", basePath}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(versions); i++ {
		p := writeTemp(t, dir, "v.img", versions[i])
		if err := run([]string{"append", "-store", storePath, "-version", p}); err != nil {
			t.Fatal(err)
		}
	}
	return versions, storePath
}

// restoreAndCompare restores version i from the archive dir and checks it
// byte-for-byte.
func restoreAndCompare(t *testing.T, dir string, i int, want []byte) {
	t.Helper()
	outPath := filepath.Join(dir, "restored.img")
	if err := run([]string{"restore", "-dir", filepath.Join(dir, "arch"), "-index", strconv.Itoa(i), "-out", outPath}); err != nil {
		t.Fatalf("restore %d: %v", i, err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored version %d differs", i)
	}
}

func TestArchiveScrubRestoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	versions := buildArchivedStore(t, dir, 6, 3, 2, 2)
	arch := filepath.Join(dir, "arch")

	if _, err := os.Stat(filepath.Join(arch, manifestName)); err != nil {
		t.Fatalf("no manifest: %v", err)
	}
	// 3+2 node directories, each holding one shard per stripe.
	for i := 0; i < 5; i++ {
		entries, err := os.ReadDir(nodeDir(arch, i))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if len(entries) != 3 { // 6 versions / segment 2
			t.Fatalf("node %d holds %d shards, want 3", i, len(entries))
		}
	}
	if err := run([]string{"scrub", "-dir", arch, "-verify"}); err != nil {
		t.Fatal(err)
	}
	for i := range versions {
		restoreAndCompare(t, dir, i, versions[i])
	}
}

func TestArchiveRestoreSurvivesNodeLoss(t *testing.T) {
	dir := t.TempDir()
	versions := buildArchivedStore(t, dir, 6, 3, 2, 2)
	arch := filepath.Join(dir, "arch")

	// Delete m=2 whole node directories: restores must still succeed
	// purely from the surviving k=3.
	for _, n := range []int{1, 4} {
		if err := os.RemoveAll(nodeDir(arch, n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range versions {
		restoreAndCompare(t, dir, i, versions[i])
	}
	// A bare scrub reports the loss and fails without -repair.
	if err := run([]string{"scrub", "-dir", arch}); err == nil {
		t.Fatal("scrub of a degraded archive succeeded without -repair")
	}
	// Repair rebuilds the lost node directories on disk.
	if err := run([]string{"scrub", "-dir", arch, "-repair", "-verify"}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		entries, err := os.ReadDir(nodeDir(arch, n))
		if err != nil || len(entries) != 3 {
			t.Fatalf("node %d not rebuilt (%d shards, err %v)", n, len(entries), err)
		}
	}
	if err := run([]string{"scrub", "-dir", arch}); err != nil {
		t.Fatalf("post-repair scrub: %v", err)
	}
}

func TestArchiveScrubRepairsBitRot(t *testing.T) {
	dir := t.TempDir()
	versions := buildArchivedStore(t, dir, 4, 4, 2, 2)
	arch := filepath.Join(dir, "arch")

	// Flip a byte in one shard of node 2.
	nd := nodeDir(arch, 2)
	entries, err := os.ReadDir(nd)
	if err != nil || len(entries) == 0 {
		t.Fatalf("node 2: %v", err)
	}
	victim := filepath.Join(nd, entries[0].Name())
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"scrub", "-dir", arch}); err == nil {
		t.Fatal("scrub missed the flipped shard")
	}
	if err := run([]string{"scrub", "-dir", arch, "-repair", "-verify"}); err != nil {
		t.Fatal(err)
	}
	// The shard on disk is byte-identical to the re-encoded original now.
	for i := range versions {
		restoreAndCompare(t, dir, i, versions[i])
	}
}

func TestArchiveUsageErrors(t *testing.T) {
	dir := t.TempDir()
	_, storePath := buildStoreFile(t, dir, 9)
	taken := filepath.Join(dir, "taken")
	if err := run([]string{"archive", "-store", storePath, "-dir", taken, "-segment", "2"}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"archive", "-store", storePath, "-dir", taken},
		{"archive"},
		{"archive", "-store", "missing.ipst", "-dir", filepath.Join(dir, "a")},
		{"archive", "-store", storePath, "-dir", filepath.Join(dir, "a"), "-segment", "0"},
		{"archive", "-store", storePath, "-dir", filepath.Join(dir, "a"), "-segment", "-4"},
		{"scrub"},
		{"scrub", "-dir", filepath.Join(dir, "nope")},
		{"restore"},
		{"restore", "-dir", filepath.Join(dir, "nope"), "-index", "0", "-out", filepath.Join(dir, "o")},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestArchiveRestoreBeyondHistory(t *testing.T) {
	dir := t.TempDir()
	buildArchivedStore(t, dir, 6, 3, 2, 2)
	err := run([]string{"restore", "-dir", filepath.Join(dir, "arch"), "-index", "99", "-out", filepath.Join(dir, "o")})
	if err == nil {
		t.Fatal("restore beyond archived history succeeded")
	}
}

// TestArchiveLoadSkipsUnlistedStripes plants a shard of a stripe that
// MANIFEST.json does not list: loading the directory leaves it on disk
// unread, and scrub checks only the listed stripes' shards.
func TestArchiveLoadSkipsUnlistedStripes(t *testing.T) {
	dir := t.TempDir()
	buildArchivedStore(t, dir, 6, 3, 2, 2)
	arch := filepath.Join(dir, "arch")
	planted := filepath.Join(nodeDir(arch, 0), shardFile(archive.ShardID{Stripe: 99, Index: 0}))
	if err := os.WriteFile(planted, []byte("stale shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	man, a, nodes, err := loadArchiveDir(arch)
	if err != nil {
		t.Fatal(err)
	}
	stripes := len(man.Archive.Stripes)
	if got := nodes[0].Len(); got != stripes {
		t.Errorf("node 0 loaded %d shards, want the %d of the listed stripes", got, stripes)
	}
	if rep := a.Scrub(); rep.ShardsChecked != 5*stripes || !rep.Clean() {
		t.Errorf("scrub = %s, want %d clean shards", rep, 5*stripes)
	}
	if err := run([]string{"scrub", "-dir", arch, "-verify"}); err != nil {
		t.Fatal(err)
	}
}

package fleet

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"ipdelta/internal/archive"
	"ipdelta/internal/obs"
	"ipdelta/internal/store"
)

// ArchiveTierConfig routes the release history through an erasure-coded
// archive before the rollout: a store of the history is exported across
// DataShards+ParityShards nodes, seeded shard faults are injected,
// scrub/repair must converge, NodeKills nodes die, and the archived images
// handed to the update server are read back through degraded k-of-n reads.
// A convergent fleet therefore proves the whole durable path from shards
// on surviving nodes to bytes on device flash.
type ArchiveTierConfig struct {
	// DataShards (k) and ParityShards (m) shape the Reed-Solomon code
	// (defaults 4 and 2). One node hosts each of the k+m shard indexes.
	DataShards   int
	ParityShards int
	// SegmentSize is the number of releases per archive stripe (default
	// 4).
	SegmentSize int
	// Corruptions and Truncations count seeded shard faults injected
	// before the scrub/repair pass.
	Corruptions int
	Truncations int
	// NodeKills is how many nodes die after repair and stay dead for the
	// rollout. Must not exceed ParityShards, or degraded reads cannot be
	// guaranteed to serve.
	NodeKills int
}

// ArchiveTierReport summarizes the archive leg of a chaos run.
type ArchiveTierReport struct {
	Nodes         int   // k+m storage nodes
	UpTo          int   // highest archived release index
	Stripes       int   // stripes written
	ScrubMissing  int   // unreadable shards the scrub pass found
	ScrubCorrupt  int   // CRC/size mismatches the scrub pass found
	Repaired      int   // shards rebuilt and written back
	KilledNodes   []int // node IDs dead during the rollout
	TierReads     int64 // releases read back from the archive
	DegradedReads int64 // archive reads that needed reconstruction
}

// String renders the report the way the chaos harness prints it.
func (r *ArchiveTierReport) String() string {
	return fmt.Sprintf("archive tier: %d nodes, %d stripes (up to v%d), scrub missing=%d corrupt=%d, repaired=%d, killed=%v, tier reads=%d (%d degraded)",
		r.Nodes, r.Stripes, r.UpTo, r.ScrubMissing, r.ScrubCorrupt,
		r.Repaired, r.KilledNodes, r.TierReads, r.DegradedReads)
}

// runArchiveTier executes the archive leg: export the history, inject
// seeded shard faults, scrub and repair to clean, kill nodes, then read
// every archived release back through degraded k-of-n reads. The returned
// slice replaces cfg.Releases for the rollout; every configuration or
// durability failure names the seed so the run replays exactly.
func runArchiveTier(cfg ChaosConfig) ([][]byte, *ArchiveTierReport, error) {
	tc := *cfg.ArchiveTier
	if tc.DataShards <= 0 {
		tc.DataShards = 4
	}
	if tc.ParityShards <= 0 {
		tc.ParityShards = 2
	}
	if tc.SegmentSize <= 0 {
		tc.SegmentSize = 4
	}
	if tc.NodeKills > tc.ParityShards {
		return nil, nil, fmt.Errorf("fleet: archive tier kills %d nodes but has only %d parity shards",
			tc.NodeKills, tc.ParityShards)
	}
	// The archive always runs against a registry, whose degraded-read
	// counter shows that node kills forced reconstructions.
	reg := cfg.Observer
	if reg == nil {
		reg = obs.NewRegistry()
	}
	before := reg.Snapshot()

	arch, nodes, err := archive.NewWithNodes(tc.DataShards, tc.ParityShards, archive.WithObserver(reg))
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: archive tier: %w", err)
	}
	st := store.New(cfg.Releases[0], store.WithObserver(reg))
	for _, r := range cfg.Releases[1:] {
		if _, err := st.AppendVersion(r); err != nil {
			return nil, nil, fmt.Errorf("fleet: archive tier: %w", err)
		}
	}
	upTo, err := st.Archive(arch, len(cfg.Releases)-1, tc.SegmentSize)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: archive tier: %w", err)
	}

	rep := &ArchiveTierReport{
		Nodes:   len(nodes),
		UpTo:    upTo,
		Stripes: len(arch.Stripes()),
	}

	// Seeded shard faults, then scrub/repair back to clean. All nodes are
	// still alive here, so a dirty post-repair scrub is a real bug.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xA2C817E5))
	for i := 0; i < tc.Corruptions; i++ {
		nodes[rng.IntN(len(nodes))].CorruptShard(rng)
	}
	for i := 0; i < tc.Truncations; i++ {
		nodes[rng.IntN(len(nodes))].TruncateShard(rng)
	}
	scrub := arch.Scrub()
	rep.ScrubMissing, rep.ScrubCorrupt = scrub.Missing, scrub.Corrupt
	repair := arch.Repair()
	rep.Repaired = repair.Repaired
	if repair.Failed > 0 || repair.Unrecoverable > 0 {
		return nil, nil, fmt.Errorf("fleet: archive repair left %d failed, %d unrecoverable (replay with seed %d)",
			repair.Failed, repair.Unrecoverable, cfg.Seed)
	}
	if post := arch.Scrub(); !post.Clean() {
		return nil, nil, fmt.Errorf("fleet: archive still dirty after repair (replay with seed %d): %s",
			cfg.Seed, post)
	}

	// Node loss for the rollout: a seeded choice of distinct nodes dies
	// and stays dead, so every read of their shard indexes reconstructs.
	for _, idx := range rng.Perm(len(nodes))[:tc.NodeKills] {
		nodes[idx].Kill()
		rep.KilledNodes = append(rep.KilledNodes, nodes[idx].ID())
	}

	// Read every archived release back from the shards and byte-verify;
	// releases past the last whole segment come from the store. These
	// copies — not cfg.Releases — feed the update server, so fleet
	// convergence proves bytes flowed shards → reconstruct → device.
	// Within the parity budget every archive read must succeed.
	out := make([][]byte, len(cfg.Releases))
	for i := range cfg.Releases {
		var img []byte
		if i <= upTo {
			img, _, err = store.ReadArchived(arch, tc.SegmentSize, i)
			rep.TierReads++
		} else {
			img, err = st.Version(i)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: archive tier cannot serve release %d (replay with seed %d): %w",
				i, cfg.Seed, err)
		}
		if !bytes.Equal(img, cfg.Releases[i]) {
			return nil, nil, fmt.Errorf("fleet: archive tier read of release %d diverged (replay with seed %d)",
				i, cfg.Seed)
		}
		out[i] = img
	}
	after := reg.Snapshot()
	rep.DegradedReads = after.Counter("ipdelta_archive_degraded_reads_total") - before.Counter("ipdelta_archive_degraded_reads_total")
	return out, rep, nil
}

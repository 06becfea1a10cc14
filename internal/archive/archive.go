package archive

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"ipdelta/internal/obs"
)

// Archive-level errors.
var (
	// ErrUnrecoverable reports a stripe with fewer than k usable shards.
	ErrUnrecoverable = errors.New("archive: stripe unrecoverable")
	// ErrCorrupt reports a reconstructed blob that fails its own CRC —
	// more shards were silently rotten than the per-shard CRCs caught.
	ErrCorrupt = errors.New("archive: corrupt stripe")
	// ErrNoSuchStripe reports a Get/repair of an unknown stripe ID.
	ErrNoSuchStripe = errors.New("archive: no such stripe")
)

// stripe is the archive's metadata for one coded blob: where the shards
// live is implicit (shard j of stripe s is ShardID{s, j} on node j); what
// they must contain is pinned by the CRCs recorded at Put time.
type stripe struct {
	shardSize int
	blobLen   int
	blobCRC   uint32
	shardCRC  []uint32 // len n
}

// archiveMetrics holds pre-resolved obs handles.
type archiveMetrics struct {
	reads         *obs.Counter // Get calls that returned a blob
	degradedReads *obs.Counter // ... that needed reconstruction
	readFailures  *obs.Counter // Get calls that failed
	shardFaults   *obs.Counter // unusable shards seen by Get/Scrub/Repair
	scrubShards   *obs.Counter // shards checked by Scrub
	scrubCorrupt  *obs.Counter // CRC mismatches found by Scrub
	scrubMissing  *obs.Counter // missing/unreadable shards found by Scrub
	repaired      *obs.Counter // shards rebuilt and rewritten by Repair
	repairFails   *obs.Counter // shards Repair could not write back

	encode obs.Stage
	read   obs.Stage
	scrub  obs.Stage
	repair obs.Stage
}

var unobservedArchive archiveMetrics // nil handles, zero stages: calls do nothing

func resolveArchiveMetrics(r *obs.Registry) *archiveMetrics {
	if r == nil {
		return &unobservedArchive
	}
	return &archiveMetrics{
		reads:         r.Counter("ipdelta_archive_reads_total"),
		degradedReads: r.Counter("ipdelta_archive_degraded_reads_total"),
		readFailures:  r.Counter("ipdelta_archive_read_failures_total"),
		shardFaults:   r.Counter("ipdelta_archive_shard_faults_total"),
		scrubShards:   r.Counter("ipdelta_archive_scrub_shards_total"),
		scrubCorrupt:  r.Counter("ipdelta_archive_scrub_corrupt_total"),
		scrubMissing:  r.Counter("ipdelta_archive_scrub_missing_total"),
		repaired:      r.Counter("ipdelta_archive_repaired_shards_total"),
		repairFails:   r.Counter("ipdelta_archive_repair_failures_total"),
		encode:        r.Stage("ipdelta_archive_stage_encode_nanos"),
		read:          r.Stage("ipdelta_archive_stage_read_nanos"),
		scrub:         r.Stage("ipdelta_archive_stage_scrub_nanos"),
		repair:        r.Stage("ipdelta_archive_stage_repair_nanos"),
	}
}

// Archive stripes blobs across a fixed group of n = k+m nodes as
// systematic Reed–Solomon code words: shard j of every stripe lives on
// node j, so losing a node costs exactly one shard per stripe and any k
// surviving nodes can serve every blob. Per-shard CRC32s recorded at Put
// time let reads and the scrub pass detect silent corruption; Repair
// re-encodes missing or corrupt shards from surviving peers. An Archive
// is safe for concurrent use.
type Archive struct {
	coder *Coder
	nodes []*Node

	mu      sync.RWMutex
	stripes map[uint64]*stripe

	met *archiveMetrics
}

// Option customizes an Archive.
type Option func(*Archive)

// WithObserver attaches a metrics registry: read/degraded-read/failure
// and scrub/repair counters plus encode/read/scrub/repair stage timers.
func WithObserver(r *obs.Registry) Option {
	return func(a *Archive) { a.met = resolveArchiveMetrics(r) }
}

// New builds an archive striping over the given nodes with
// dataShards + parityShards == len(nodes).
func New(nodes []*Node, dataShards, parityShards int, opts ...Option) (*Archive, error) {
	if len(nodes) != dataShards+parityShards {
		return nil, fmt.Errorf("%w: %d nodes for %d+%d shards",
			ErrShardCount, len(nodes), dataShards, parityShards)
	}
	coder, err := NewCoder(dataShards, parityShards)
	if err != nil {
		return nil, err
	}
	a := &Archive{
		coder:   coder,
		nodes:   append([]*Node(nil), nodes...),
		stripes: make(map[uint64]*stripe),
		met:     &unobservedArchive,
	}
	for _, o := range opts {
		o(a)
	}
	return a, nil
}

// NewWithNodes builds n fresh healthy nodes and an archive over them.
func NewWithNodes(dataShards, parityShards int, opts ...Option) (*Archive, []*Node, error) {
	nodes := make([]*Node, dataShards+parityShards)
	for i := range nodes {
		nodes[i] = NewNode(i)
	}
	a, err := New(nodes, dataShards, parityShards, opts...)
	if err != nil {
		return nil, nil, err
	}
	return a, nodes, nil
}

// Nodes returns the stripe group (shared, for fault injection in tests
// and chaos harnesses).
func (a *Archive) Nodes() []*Node { return a.nodes }

// DataShards returns k.
func (a *Archive) DataShards() int { return a.coder.k }

// ParityShards returns m.
func (a *Archive) ParityShards() int { return a.coder.m }

// Stripes returns the stored stripe IDs in ascending order.
func (a *Archive) Stripes() []uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ids := make([]uint64, 0, len(a.stripes))
	for id := range a.stripes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Put encodes blob into k+m shards and stores shard j on node j under
// stripe id, replacing any previous stripe with that id. Up to m shards
// may fail to store (their nodes down or flaky) and the stripe is still
// readable and repairable; more than m put failures is an error and the
// stripe is not recorded.
func (a *Archive) Put(id uint64, blob []byte) error {
	span := a.met.encode.Start()
	k, n := a.coder.k, a.coder.TotalShards()
	shardSize := (len(blob) + k - 1) / k
	// Pad the blob to k equal shards; the true length is stripe metadata.
	padded := make([]byte, shardSize*k)
	copy(padded, blob)
	shards := make([][]byte, n)
	for j := 0; j < k; j++ {
		shards[j] = padded[j*shardSize : (j+1)*shardSize]
	}
	if err := a.coder.Encode(shards); err != nil {
		return err
	}
	st := &stripe{
		shardSize: shardSize,
		blobLen:   len(blob),
		blobCRC:   crc32.ChecksumIEEE(blob),
		shardCRC:  make([]uint32, n),
	}
	failed := 0
	var firstErr error
	for j, s := range shards {
		st.shardCRC[j] = crc32.ChecksumIEEE(s)
		if err := a.nodes[j].Put(ShardID{Stripe: id, Index: j}, s); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	a.met.shardFaults.Add(int64(failed))
	span.End()
	if failed > a.coder.m {
		return fmt.Errorf("%w: stripe %d: %d of %d shards failed to store: %v",
			ErrUnrecoverable, id, failed, n, firstErr)
	}
	a.mu.Lock()
	a.stripes[id] = st
	a.mu.Unlock()
	return nil
}

// fetchShards pulls every shard of st from its node, verifying the
// recorded CRC; unusable shards (node down, missing, wrong size, rotten)
// come back nil. Returns the usable count.
func (a *Archive) fetchShards(id uint64, st *stripe) ([][]byte, int) {
	n := a.coder.TotalShards()
	shards := make([][]byte, n)
	good := 0
	for j := 0; j < n; j++ {
		b, err := a.nodes[j].Get(ShardID{Stripe: id, Index: j})
		if err != nil || len(b) != st.shardSize || crc32.ChecksumIEEE(b) != st.shardCRC[j] {
			continue
		}
		shards[j] = b
		good++
	}
	return shards, good
}

// Get reads the blob stored under stripe id, reconstructing through the
// erasure code when shards are missing or corrupt (a degraded read). Any
// k usable shards suffice; the result is verified against the blob CRC
// recorded at Put time.
func (a *Archive) Get(id uint64) ([]byte, error) {
	span := a.met.read.Start()
	blob, degraded, err := a.get(id)
	if err != nil {
		a.met.readFailures.Inc()
	} else {
		a.met.reads.Inc()
		if degraded {
			a.met.degradedReads.Inc()
		}
	}
	span.End()
	return blob, err
}

func (a *Archive) get(id uint64) ([]byte, bool, error) {
	a.mu.RLock()
	st := a.stripes[id]
	a.mu.RUnlock()
	if st == nil {
		return nil, false, fmt.Errorf("%w: %d", ErrNoSuchStripe, id)
	}
	k := a.coder.k
	shards, good := a.fetchShards(id, st)
	a.met.shardFaults.Add(int64(a.coder.TotalShards() - good))
	degraded := false
	for j := 0; j < k; j++ {
		if shards[j] == nil {
			degraded = true
			break
		}
	}
	if degraded {
		if good < k {
			return nil, true, fmt.Errorf("%w: stripe %d: %d of %d shards usable, need %d",
				ErrUnrecoverable, id, good, len(shards), k)
		}
		if err := a.coder.ReconstructData(shards); err != nil {
			return nil, true, fmt.Errorf("archive: stripe %d: %w", id, err)
		}
	}
	blob := make([]byte, 0, st.shardSize*k)
	for j := 0; j < k; j++ {
		blob = append(blob, shards[j]...)
	}
	blob = blob[:st.blobLen]
	if crc32.ChecksumIEEE(blob) != st.blobCRC {
		return nil, degraded, fmt.Errorf("%w: stripe %d blob CRC mismatch", ErrCorrupt, id)
	}
	return blob, degraded, nil
}

// ShardState classifies one shard during a scrub.
type ShardState uint8

// Shard states reported by Scrub.
const (
	ShardOK      ShardState = iota // present with matching CRC
	ShardMissing                   // node down, shard gone, or transient error
	ShardCorrupt                   // present but CRC or size mismatch
)

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Stripes       int // stripes walked
	ShardsChecked int // shards examined
	Missing       int // unreadable or absent shards
	Corrupt       int // CRC/size mismatches (silent bit-rot, truncation)
	BadStripes    int // stripes with at least one bad shard
	Unrecoverable int // stripes with fewer than k usable shards
	// PerStripe maps each damaged stripe to its per-shard states
	// (len n); healthy stripes are omitted.
	PerStripe map[uint64][]ShardState
}

// Clean reports whether the scrub found nothing wrong.
func (r *ScrubReport) Clean() bool { return r.Missing == 0 && r.Corrupt == 0 }

// String renders the report the way `ipstore scrub` prints it.
func (r *ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d stripes, %d shards checked, %d missing, %d corrupt, %d stripes damaged, %d unrecoverable",
		r.Stripes, r.ShardsChecked, r.Missing, r.Corrupt, r.BadStripes, r.Unrecoverable)
}

// Scrub walks every shard of every stripe, verifying presence and CRC,
// and reports — but does not modify — what it finds. A clean scrub proves
// every stripe can be read without reconstruction; a dirty one names the
// shards Repair must rebuild.
func (a *Archive) Scrub() *ScrubReport {
	span := a.met.scrub.Start()
	rep := &ScrubReport{PerStripe: make(map[uint64][]ShardState)}
	n := a.coder.TotalShards()
	for _, id := range a.Stripes() {
		a.mu.RLock()
		st := a.stripes[id]
		a.mu.RUnlock()
		rep.Stripes++
		states := make([]ShardState, n)
		usable, bad := 0, false
		for j := 0; j < n; j++ {
			rep.ShardsChecked++
			b, err := a.nodes[j].Get(ShardID{Stripe: id, Index: j})
			switch {
			case err != nil:
				states[j] = ShardMissing
				rep.Missing++
				bad = true
			case len(b) != st.shardSize || crc32.ChecksumIEEE(b) != st.shardCRC[j]:
				states[j] = ShardCorrupt
				rep.Corrupt++
				bad = true
			default:
				states[j] = ShardOK
				usable++
			}
		}
		if bad {
			rep.BadStripes++
			rep.PerStripe[id] = states
			if usable < a.coder.k {
				rep.Unrecoverable++
			}
		}
	}
	a.met.scrubShards.Add(int64(rep.ShardsChecked))
	a.met.scrubCorrupt.Add(int64(rep.Corrupt))
	a.met.scrubMissing.Add(int64(rep.Missing))
	a.met.shardFaults.Add(int64(rep.Missing + rep.Corrupt))
	span.End()
	return rep
}

// RepairReport summarizes one repair pass.
type RepairReport struct {
	Stripes       int // stripes examined
	Repaired      int // shards rebuilt and written back
	Failed        int // shards rebuilt but not writable (node still down)
	Unrecoverable int // stripes with fewer than k usable shards
}

// String renders the report the way `ipstore scrub -repair` prints it.
func (r *RepairReport) String() string {
	return fmt.Sprintf("repair: %d stripes, %d shards rebuilt, %d write failures, %d unrecoverable",
		r.Stripes, r.Repaired, r.Failed, r.Unrecoverable)
}

// Repair rebuilds every missing or corrupt shard from surviving peers and
// writes it back to its node: full re-encoding from any k usable shards,
// with each rebuilt shard verified against the CRC recorded at Put time
// before it is stored. Shards whose node is down stay missing (counted in
// Failed) and can be repaired after the node revives; stripes with fewer
// than k usable shards are counted Unrecoverable and left untouched.
func (a *Archive) Repair() *RepairReport {
	span := a.met.repair.Start()
	rep := &RepairReport{}
	n := a.coder.TotalShards()
	for _, id := range a.Stripes() {
		a.mu.RLock()
		st := a.stripes[id]
		a.mu.RUnlock()
		rep.Stripes++
		shards, good := a.fetchShards(id, st)
		if good == n {
			continue
		}
		if good < a.coder.k {
			rep.Unrecoverable++
			continue
		}
		// Remember which shards were unusable, then rebuild them all.
		missing := make([]int, 0, n-good)
		for j, s := range shards {
			if s == nil {
				missing = append(missing, j)
			}
		}
		if err := a.coder.Reconstruct(shards); err != nil {
			rep.Unrecoverable++
			continue
		}
		for _, j := range missing {
			if crc32.ChecksumIEEE(shards[j]) != st.shardCRC[j] {
				// Reconstruction disagrees with the recorded identity:
				// more rot than the CRCs caught. Leave the shard alone.
				rep.Failed++
				continue
			}
			if err := a.nodes[j].Put(ShardID{Stripe: id, Index: j}, shards[j]); err != nil {
				rep.Failed++
				continue
			}
			rep.Repaired++
		}
	}
	a.met.repaired.Add(int64(rep.Repaired))
	a.met.repairFails.Add(int64(rep.Failed))
	span.End()
	return rep
}

// StripeInfo is one stripe's metadata in a Manifest.
type StripeInfo struct {
	ID        uint64   `json:"id"`
	ShardSize int      `json:"shard_size"`
	BlobLen   int      `json:"blob_len"`
	BlobCRC   uint32   `json:"blob_crc"`
	ShardCRC  []uint32 `json:"shard_crc"`
}

// Manifest captures an archive's coding parameters and stripe metadata so
// shard collections persisted elsewhere (for example `ipstore archive`'s
// node directories) can be reopened with Open.
type Manifest struct {
	DataShards   int          `json:"data_shards"`
	ParityShards int          `json:"parity_shards"`
	Stripes      []StripeInfo `json:"stripes"`
}

// Manifest snapshots the archive's metadata.
func (a *Archive) Manifest() *Manifest {
	a.mu.RLock()
	defer a.mu.RUnlock()
	m := &Manifest{DataShards: a.coder.k, ParityShards: a.coder.m}
	ids := make([]uint64, 0, len(a.stripes))
	for id := range a.stripes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := a.stripes[id]
		m.Stripes = append(m.Stripes, StripeInfo{
			ID:        id,
			ShardSize: st.shardSize,
			BlobLen:   st.blobLen,
			BlobCRC:   st.blobCRC,
			ShardCRC:  append([]uint32(nil), st.shardCRC...),
		})
	}
	return m
}

// Open rebuilds an Archive over existing nodes from a Manifest. Shard
// contents are whatever the nodes hold; a scrub pass reconciles them with
// the manifest's CRCs.
func Open(nodes []*Node, m *Manifest, opts ...Option) (*Archive, error) {
	a, err := New(nodes, m.DataShards, m.ParityShards, opts...)
	if err != nil {
		return nil, err
	}
	n := m.DataShards + m.ParityShards
	for _, si := range m.Stripes {
		if si.ShardSize < 0 || si.BlobLen < 0 || si.BlobLen > si.ShardSize*m.DataShards || len(si.ShardCRC) != n {
			return nil, fmt.Errorf("%w: manifest stripe %d", ErrCorrupt, si.ID)
		}
		a.stripes[si.ID] = &stripe{
			shardSize: si.ShardSize,
			blobLen:   si.BlobLen,
			blobCRC:   si.BlobCRC,
			shardCRC:  append([]uint32(nil), si.ShardCRC...),
		}
	}
	return a, nil
}

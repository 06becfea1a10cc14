package inplace

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/graph"
	"ipdelta/internal/obs"
)

// converterMetrics holds the pre-resolved metric handles of a Converter.
// Resolution happens once, when the Converter is configured, so the
// convert hot path performs no registry lookups and no allocations —
// just atomic adds and, when observed, two time.Now calls per stage.
type converterMetrics struct {
	conversions   *obs.Counter
	errors        *obs.Counter
	edges         *obs.Counter
	cyclesBroken  *obs.Counter // name carries the policy label
	cycleVertices *obs.Counter
	converted     *obs.Counter
	convertedB    *obs.Counter
	stashed       *obs.Counter
	scratchB      *obs.Counter
	// splitComponents counts cyclic components resolved by splitting.
	splitComponents *obs.Counter

	partitionStage obs.Stage
	crwiStage      obs.Stage
	sortStage      obs.Stage // toposort, and the split pass under StrategySplit
	emitStage      obs.Stage
}

// resolveConverterMetrics binds the convert metric set (DESIGN.md §9) in
// r. The cycle counters carry the policy as a baked-in label, so the
// operator can compare policies without per-event formatting.
func resolveConverterMetrics(r *obs.Registry, policy string) *converterMetrics {
	if r == nil {
		return &unobservedConverter
	}
	label := "{policy=\"" + policy + "\"}"
	return &converterMetrics{
		conversions:   r.Counter("ipdelta_convert_total"),
		errors:        r.Counter("ipdelta_convert_errors_total"),
		edges:         r.Counter("ipdelta_convert_edges_total"),
		cyclesBroken:  r.Counter("ipdelta_convert_cycles_broken_total" + label),
		cycleVertices: r.Counter("ipdelta_convert_cycle_vertices_total" + label),
		converted:     r.Counter("ipdelta_convert_converted_copies_total"),
		convertedB:    r.Counter("ipdelta_convert_converted_bytes_total"),
		stashed:       r.Counter("ipdelta_convert_stashed_copies_total"),
		scratchB:      r.Counter("ipdelta_convert_scratch_bytes_total"),

		splitComponents: r.Counter("ipdelta_convert_split_components_total"),

		partitionStage: r.Stage("ipdelta_convert_stage_partition_nanos"),
		crwiStage:      r.Stage("ipdelta_convert_stage_crwi_nanos"),
		sortStage:      r.Stage("ipdelta_convert_stage_toposort_nanos"),
		emitStage:      r.Stage("ipdelta_convert_stage_emit_nanos"),
	}
}

var unobservedConverter converterMetrics // nil handles, zero stages: calls do nothing

// Converter performs in-place conversions over one reusable set of working
// memory: the copy/add partition, the CRWI digraph in CSR form, the
// topological-sort state, and the output buffers. A steady-state server
// converts thousands of deltas; rebuilding all of that state from the heap
// on every call cost more than the O(|C| log |C| + |E|) algorithm itself.
// A Converter amortizes it to zero allocations per call, and the free
// Convert function draws Converters from a pool for the same reason.
//
// A Converter is not safe for concurrent use; use one per goroutine.
type Converter struct {
	o      Options
	costFn graph.CostFunc

	validator delta.Validator
	copies    []delta.Command
	adds      []delta.Command
	crwi      crwiScratch
	topo      graph.TopoScratch

	sp splitScratch // StrategySplit state

	seq       []delta.Command // copies of one resolution, in emission order
	victims   []delta.Command // copies of one resolution to convert or stash
	stashes   []delta.Command
	unstashes []delta.Command
	converted []delta.Command
	arena     []byte // literal data of converted copies (pooled mode)
	// bref adapts the []byte entry points to the reader path; boxing a
	// pointer to it, not the slice, keeps them allocation-free.
	bref bytes.Reader

	out   delta.Delta
	alt   []delta.Command // the other resolution's layout, for reuse
	stats Stats
	met   *converterMetrics
	span  obs.Span // the running stage span
}

// NewConverter returns a Converter with the given options applied. The
// zero value of Converter is also usable and behaves like NewConverter().
func NewConverter(opts ...Option) *Converter {
	cv := &Converter{}
	cv.configure(opts)
	return cv
}

// configure applies opts over the defaults and resolves the metric
// handles, whose cycle counters carry the policy's label. A configured
// Converter always has a policy.
func (cv *Converter) configure(opts []Option) {
	cv.o = Options{}
	for _, opt := range opts {
		opt(&cv.o)
	}
	if cv.o.policy == nil {
		cv.o.policy = graph.LocallyMinimum{}
	}
	if cv.o.strategy == 0 {
		cv.o.strategy = StrategySplit
	}
	cv.met = resolveConverterMetrics(cv.o.obs, cv.o.policy.Name())
}

// init configures the zero value as NewConverter() would and binds the
// cost function.
func (cv *Converter) init() {
	if cv.o.policy == nil {
		cv.configure(nil)
	}
	if cv.costFn == nil {
		// The cost of deleting a vertex is the compression lost by
		// re-encoding its copy as an add: l − |f|, with |f| the varint
		// size of the from-offset. Bound once so steady-state calls do
		// not allocate a closure.
		cv.costFn = func(v int) int64 {
			c := &cv.copies[v]
			return c.Length - int64(codec.UvarintLen(uint64(c.From)))
		}
	}
}

// Convert rewrites d into an in-place reconstructible delta, like the free
// Convert function, but reuses the converter's working memory: in steady
// state it performs no heap allocations. The returned delta and stats are
// owned by the Converter and remain valid only until its next call;
// callers that retain results across calls must clone them, or use the
// free Convert function, whose output is caller-owned.
// The input delta is not modified; the output's unconverted add commands
// share data slices with the input.
func (cv *Converter) Convert(d *delta.Delta, ref []byte) (*delta.Delta, *Stats, error) {
	cv.bref.Reset(ref)
	return cv.convert(d, &cv.bref, false)
}

// Reset drops the converter's references to caller memory (the
// reference, the input's add data held by its command buffers, and the
// last stage span, which points at an observer's registry) so a
// converter kept for reuse, in a pool or a long-lived worker, pins
// nothing but its own scratch. The output of the last Convert is invalid
// after Reset. Every call fills these buffers from index 0, so clearing
// what the last call used clears everything ever written.
func (cv *Converter) Reset() {
	cv.bref.Reset(nil)
	clear(cv.adds)
	clear(cv.out.Commands)
	clear(cv.alt)
	cv.out = delta.Delta{Commands: cv.out.Commands[:0]}
	cv.span = obs.Span{}
}

// BuildCRWI partitions d's commands, sorts the copies by write offset and
// builds their CRWI digraph over the converter's pooled scratch, without
// converting. It returns the copy and edge counts — a cheap structural
// probe, and the measurement hook the benchmark-baseline harness uses to
// time digraph construction alone.
func (cv *Converter) BuildCRWI(d *delta.Delta) (copies, edges int, err error) {
	cv.init()
	if err := cv.validator.Validate(d); err != nil {
		return 0, 0, fmt.Errorf("convert: %w", err)
	}
	cv.partition(d)
	slices.SortFunc(cv.copies, commandsByWriteOffset)
	g := cv.crwi.build(cv.copies)
	return len(cv.copies), g.NumEdges(), nil
}

// partition splits d's commands into the copy and add scratch slices.
//
//ipvet:allocfree
func (cv *Converter) partition(d *delta.Delta) {
	cv.copies, cv.adds = cv.copies[:0], cv.adds[:0]
	for _, c := range d.Commands {
		if c.Op == delta.OpCopy {
			cv.copies = append(cv.copies, c)
		} else {
			cv.adds = append(cv.adds, c)
		}
	}
}

// commandsByWriteOffset orders commands by increasing write offset. Write
// intervals of a valid delta are disjoint, so the order is strict.
//
//ipvet:allocfree
func commandsByWriteOffset(a, b delta.Command) int { return cmp.Compare(a.To, b.To) }

func (cv *Converter) convert(d *delta.Delta, ref RefReader, detach bool) (*delta.Delta, *Stats, error) {
	cv.init()
	cmds, err := cv.resolve(d)
	if err == nil && ref.Size() != d.RefLen {
		err = fmt.Errorf("convert: reference length %d, delta expects %d", ref.Size(), d.RefLen)
	}
	if err == nil {
		cmds, err = cv.fill(cmds, ref, detach)
	}
	if err != nil {
		cv.met.errors.Inc()
		return nil, nil, err
	}
	cv.span.End()
	m := cv.met
	m.conversions.Inc()
	m.edges.Add(int64(cv.stats.Edges))
	m.cyclesBroken.Add(int64(cv.stats.CyclesBroken))
	m.cycleVertices.Add(int64(cv.stats.CycleVertices))
	m.converted.Add(int64(cv.stats.ConvertedCopies))
	m.convertedB.Add(cv.stats.ConvertedBytes)
	m.stashed.Add(int64(cv.stats.StashedCopies))
	m.scratchB.Add(cv.stats.ScratchUsed)
	m.splitComponents.Add(int64(cv.stats.SplitComponents))
	if detach {
		out := &delta.Delta{RefLen: d.RefLen, VersionLen: d.VersionLen, Commands: cmds}
		st := cv.stats
		return out, &st, nil
	}
	cv.out = delta.Delta{RefLen: d.RefLen, VersionLen: d.VersionLen, Commands: cmds}
	return &cv.out, &cv.stats, nil
}

// fill gives every converted copy in cmds its reference bytes, in one
// arena sized up front so the per-command sub-slices stay valid as it
// fills. This is the conversion's only read of the reference, and it
// reads just those bytes. With detach, cmds and the arena are fresh
// caller-owned memory.
func (cv *Converter) fill(cmds []delta.Command, ref RefReader, detach bool) ([]delta.Command, error) {
	if detach {
		cmds = append(make([]delta.Command, 0, len(cmds)), cmds...)
	}
	arena := cv.arena
	if detach || int64(cap(arena)) < cv.stats.ConvertedBytes {
		arena = make([]byte, 0, cv.stats.ConvertedBytes)
	} else {
		arena = arena[:0]
	}
	for k := range cmds {
		c := &cmds[k]
		if c.Op != delta.OpAdd || c.Data != nil {
			continue
		}
		start := int64(len(arena))
		arena = arena[:start+c.Length]
		if err := readFull(ref, arena[start:], c.From); err != nil {
			return nil, err
		}
		*c = delta.NewAdd(c.To, arena[start:len(arena):len(arena)])
	}
	if !detach {
		cv.arena = arena
	}
	return cmds, nil
}

// readFull reads len(p) bytes of ref at off. An io.ReaderAt may report
// io.EOF beside a full read that ends its input; that read succeeded.
func readFull(ref RefReader, p []byte, off int64) error {
	n, err := ref.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("convert: read reference at %d+%d: %w", off, len(p), err)
}

// resolve runs the conversion up to, but not including, reading the
// reference: it validates d, builds and resolves the CRWI digraph, and
// returns the output command sequence in converter-owned memory, with
// every converted copy laid out as an add whose From still names its
// reference bytes and whose Data is nil. It fills cv.stats. Analyze runs
// exactly this, so its census describes the conversion Convert performs.
func (cv *Converter) resolve(d *delta.Delta) ([]delta.Command, error) {
	if err := cv.validator.Validate(d); err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}

	// Step 1: partition into copies and adds.
	cv.span = cv.met.partitionStage.Start()
	cv.partition(d)
	cv.stats = Stats{
		Copies: len(cv.copies),
		Adds:   len(cv.adds),
		Policy: cv.o.policy.Name(),
	}

	// Step 2: sort copies by increasing write offset.
	slices.SortFunc(cv.copies, commandsByWriteOffset)
	// The input's adds go last, sorted by write offset for determinism;
	// cv.adds is the converter's own copy, so it can be sorted in place.
	slices.SortFunc(cv.adds, commandsByWriteOffset)
	cv.span.End()
	cv.span = cv.met.crwiStage.Start()

	// Step 3: build the CRWI digraph (sweep-line merge, CSR form).
	g := cv.crwi.build(cv.copies)
	cv.stats.Edges = g.NumEdges()
	cv.span.End()
	cv.span = cv.met.sortStage.Start()

	// Step 4: topological sort with cycle breaking.
	res := cv.topo.Sort(g, cv.costFn, cv.o.policy)
	order, removed := res.Order, res.Removed
	cv.stats.CyclesBroken = res.CyclesBroken
	cv.stats.CycleVertices = res.CycleVertices
	cv.stats.RemovedCost = res.RemovedCost
	split := cv.o.strategy == StrategySplit && cv.sp.resolve(cv, g, res)
	cv.span.End()
	cv.span = cv.met.emitStage.Start()

	// Step 5: emit the paper's resolution: the surviving copies in
	// topological order, the removed ones as adds (or stashes).
	cv.seq = reserve(cv.seq, len(order))
	for _, v := range order {
		cv.seq = append(cv.seq, cv.copies[v])
	}
	cv.victims = reserve(cv.victims, len(removed))
	for _, v := range removed {
		cv.victims = append(cv.victims, cv.copies[v])
	}
	var counts emitCounts
	cv.out.Commands, counts = cv.assemble(cv.out.Commands, cv.seq, cv.victims)
	cmds := cv.out.Commands
	if split {
		// Some cyclic components resolve cheaper split at conflict
		// boundaries: emit components in condensation order and keep the
		// result only if it also encodes smaller as a whole.
		var splitCounts emitCounts
		cv.alt, splitCounts = cv.assemble(cv.alt, cv.sp.sequence(cv, order), cv.sp.victims(cv, removed))
		if cv.smaller(d, cv.alt, cmds) {
			cmds, counts = cv.alt, splitCounts
			cv.out.Commands, cv.alt = cv.alt, cv.out.Commands
			cv.sp.chosenStats(&cv.stats)
		} else {
			cv.sp.reject()
		}
	}
	cv.stats.ConvertedCopies = counts.converted
	cv.stats.ConvertedBytes = counts.convertedBytes
	cv.stats.StashedCopies = counts.stashed
	cv.stats.ScratchUsed = counts.scratch
	return cmds, nil
}

// emitCounts tallies what assemble did with the victims.
type emitCounts struct {
	converted, stashed      int
	convertedBytes, scratch int64
}

// assemble lays out one resolution's output in dst's storage: stashes,
// the copies of seq in order, unstashes, the victims that did not fit the
// scratch budget as adds sorted by write offset, then the input's adds.
//
// Bounded-scratch extension: victims that fit the budget are stashed up
// front (while their source bytes are still original) and unstashed at
// the end, instead of carrying their data as adds. A converted add keeps
// its source offset in From and has nil Data until convert fills it.
func (cv *Converter) assemble(dst, seq, victims []delta.Command) ([]delta.Command, emitCounts) {
	var n emitCounts
	budget := cv.o.scratch
	cv.stashes, cv.unstashes = reserve(cv.stashes, len(victims)), reserve(cv.unstashes, len(victims))
	cv.converted = reserve(cv.converted, len(victims))
	for _, c := range victims {
		if c.Length <= budget {
			cv.stashes = append(cv.stashes, delta.NewStash(c.From, c.Length))
			cv.unstashes = append(cv.unstashes, delta.NewUnstash(c.To, c.Length))
			budget -= c.Length
			n.stashed++
			n.scratch += c.Length
			continue
		}
		cv.converted = append(cv.converted, delta.Command{Op: delta.OpAdd, From: c.From, To: c.To, Length: c.Length})
		n.converted++
		n.convertedBytes += c.Length
	}
	slices.SortFunc(cv.converted, commandsByWriteOffset)
	dst = reserve(dst, len(seq)+2*len(victims)+len(cv.adds))
	dst = append(dst, cv.stashes...)
	dst = append(dst, seq...)
	dst = append(dst, cv.unstashes...)
	dst = append(dst, cv.converted...)
	dst = append(dst, cv.adds...)
	return dst, n
}

// smaller reports whether the command list a encodes strictly smaller than
// b in every wire format that can carry them: the scratch format when a
// budget allows stashes, else both the compact and the offsets format.
// Converted adds are sized by Length, so no reference bytes are needed.
func (cv *Converter) smaller(d *delta.Delta, a, b []delta.Command) bool {
	da := delta.Delta{RefLen: d.RefLen, VersionLen: d.VersionLen, Commands: a}
	db := delta.Delta{RefLen: d.RefLen, VersionLen: d.VersionLen, Commands: b}
	formats := [2]codec.Format{codec.FormatCompact, codec.FormatOffsets}
	if cv.o.scratch > 0 {
		formats = [2]codec.Format{codec.FormatScratch, codec.FormatScratch}
	}
	for _, f := range formats {
		sa, errA := codec.Size(&da, f)
		sb, errB := codec.Size(&db, f)
		if errA != nil || errB != nil || sa >= sb {
			return false
		}
	}
	return true
}

// crwiScratch builds CRWI digraphs in CSR form with a sweep-line merge,
// over buffers reused across builds.
//
// The CRWI digraph has an edge i→j whenever copy i's read interval
// [f_i, f_i+l_i-1] intersects copy j's write interval [t_j, t_j+l_j-1]
// (so i must execute before j to avoid the write-before-read conflict).
// With copies sorted by write offset, both the write starts and the write
// ends are strictly increasing, so the writes conflicting with a read form
// one contiguous index range. The reference builder (buildCRWI) locates
// that range with a binary search per copy; here the reads are visited in
// start order and the range's left end only ever advances, replacing the
// per-copy O(log |C|) search with an amortized O(1) pointer advance:
// O(|C| log |C|) for the read-order sort plus O(|C| + |E|) for the sweep,
// with the log-factor work now a plain sort instead of |C| scattered
// binary searches. The edge set is identical to the reference builder's
// (property-tested), including per-vertex successor order.
type crwiScratch struct {
	b         graph.CSRBuilder
	readOrder []int32 // copy indices ordered by read-interval start
	firstW    []int32 // per copy: first conflicting write index
	endW      []int32 // per copy: one past the last conflicting write index
}

// build constructs the CRWI digraph over copies, which must be sorted by
// write offset. The returned graph is backed by the scratch and valid
// until the next build.
func (cs *crwiScratch) build(copies []delta.Command) *graph.CSR {
	n := len(copies)
	cs.readOrder = growIndex(cs.readOrder, n)
	cs.firstW = growIndex(cs.firstW, n)
	cs.endW = growIndex(cs.endW, n)
	for i := 0; i < n; i++ {
		cs.readOrder[i] = int32(i)
	}
	slices.SortFunc(cs.readOrder, func(a, b int32) int {
		return cmp.Compare(copies[a].From, copies[b].From)
	})

	// Sweep: for each copy i in read-start order, the conflicting writes
	// are [w, j): w is the first write ending at or after the read start
	// (monotone in the read start, so the pointer only advances), and j
	// walks forward over the writes starting within the read. The walks
	// sum to |E| plus at most one self-overlap per copy.
	w := 0
	for _, ri := range cs.readOrder {
		i := int(ri)
		c := copies[i]
		readLo, readHi := c.From, c.From+c.Length-1
		for w < n && copies[w].To+copies[w].Length-1 < readLo {
			w++
		}
		j := w
		for j < n && copies[j].To <= readHi {
			j++
		}
		cs.firstW[i], cs.endW[i] = int32(w), int32(j)
	}
	return cs.edges(nil)
}

// edges builds the CSR digraph from the recorded write ranges: vertex i
// gets an edge to every j in [firstW[i], endW[i]). A copy never conflicts
// with itself (§4.1), so i is skipped inside its own range; a non-nil
// label keeps only the edges between vertices with equal labels.
func (cs *crwiScratch) edges(label []int32) *graph.CSR {
	n := len(cs.firstW)
	keep := func(i, j int) bool { return j != i && (label == nil || label[i] == label[j]) }
	cs.b.Reset(n)
	for i := 0; i < n; i++ {
		if label == nil {
			deg := int(cs.endW[i] - cs.firstW[i])
			if cs.firstW[i] <= int32(i) && int32(i) < cs.endW[i] {
				deg--
			}
			cs.b.AddDegree(i, deg)
			continue
		}
		for j := cs.firstW[i]; j < cs.endW[i]; j++ {
			if keep(i, int(j)) {
				cs.b.CountEdge(i)
			}
		}
	}
	cs.b.StartFill()
	for i := 0; i < n; i++ {
		for j := cs.firstW[i]; j < cs.endW[i]; j++ {
			if keep(i, int(j)) {
				cs.b.FillEdge(i, int(j))
			}
		}
	}
	return cs.b.Finish()
}

// reserve returns s emptied, with capacity for at least n elements, so a
// run of appends that stays within n does not grow it piecemeal.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// growIndex returns s resized to n elements, reusing capacity. Contents
// are unspecified; callers overwrite every element.
func growIndex(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

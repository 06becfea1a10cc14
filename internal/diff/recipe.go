package diff

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ipdelta/internal/chunk"
	"ipdelta/internal/delta"
	"ipdelta/internal/obs"
)

// RecipeDiffer computes deltas at chunk granularity: two versions are
// compared as ordered chunk recipes, every chunk the new version shares
// with the old becomes a whole-chunk copy command (merged with its
// neighbours when the source bytes are contiguous), and only the
// unmatched runs in between are handed to the Karp–Rabin byte differ —
// against a bounded window of old bytes around the gap, never the whole
// file. For a multi-GiB version pair with localized churn this turns the
// O(L_R + L_V) full scan into work proportional to the churn, and caps
// working memory at O(window + max chunk) per worker regardless of file
// size.
type RecipeDiffer struct {
	seedLen   int
	maxBits   uint
	windowCap int
	met       *recipeMetrics
	pool      sync.Pool // of *recipeState
}

// DefaultRecipeWindow bounds the old-file context materialized around one
// unmatched run, and the size of the new-run segments scanned against it.
const DefaultRecipeWindow = 4 << 20

// recipeMetrics holds the pre-resolved handles of an observed
// RecipeDiffer.
type recipeMetrics struct {
	diffs      *obs.Counter // DiffRecipes calls
	chunkCopy  *obs.Counter // bytes covered by whole-chunk copies
	runBytes   *obs.Counter // new bytes that fell to the byte differ
	runWindows *obs.Counter // old-context windows materialized
}

func resolveRecipeMetrics(r *obs.Registry) *recipeMetrics {
	return &recipeMetrics{
		diffs:      r.Counter("ipdelta_recipe_diff_total"),
		chunkCopy:  r.Counter("ipdelta_recipe_diff_chunk_copy_bytes_total"),
		runBytes:   r.Counter("ipdelta_recipe_diff_run_bytes_total"),
		runWindows: r.Counter("ipdelta_recipe_diff_windows_total"),
	}
}

// recipeState is one worker's working memory: the fingerprint table, the
// emitter, and the two bounded materialization buffers. The state of the
// goroutine that called DiffRecipes also holds the call's plan. States
// are pooled per RecipeDiffer so steady-state calls reallocate none of
// it.
type recipeState struct {
	table  krTable
	e      emitter
	oldWin []byte // materialized old context, <= windowCap
	newSeg []byte // materialized new-run segment, <= windowCap

	// The plan, in the calling goroutine's state only.
	oldOff    map[chunk.ID]int64 // first-occurrence offset of every old chunk
	oldStarts []int64            // cumulative old chunk starts, plus the total
	steps     []recipeStep
	runs      []recipeRun
	nextRun   atomic.Int64   // the next run a worker takes
	helpers   []*recipeState // states the other workers diffed in
	workers   sync.WaitGroup // the helpers' goroutines
}

// recipeStep is one entry of a DiffRecipes plan, in new-file order: a
// merged whole-chunk copy of n bytes from old offset from to new offset
// to, or, when run >= 0, the unmatched run runs[run].
type recipeStep struct {
	from, to, n int64
	run         int
}

// recipeRun is an unmatched run of new chunks [a, b), starting at new
// offset to, diffed against the old context [gapLo, gapHi). The diff
// phase records which worker's emitter holds its commands and literal
// bytes, and where.
type recipeRun struct {
	a, b         int
	to           int64
	gapLo, gapHi int64

	st           *recipeState
	cmdLo, cmdHi int
	litLo, litHi int
	err          error
}

// RecipeOption customizes a RecipeDiffer.
type RecipeOption func(*RecipeDiffer)

// WithRecipeWindow caps the old-file context (and new-run segment) the
// byte differ sees per unmatched run; <= 0 keeps the default. Smaller
// windows bound memory tighter at some compression cost on large
// rewrites.
func WithRecipeWindow(n int) RecipeOption {
	return func(rd *RecipeDiffer) {
		if n > 0 {
			rd.windowCap = n
		}
	}
}

// WithRecipeSeedLen sets the seed length of the run differ (default 16).
func WithRecipeSeedLen(p int) RecipeOption {
	return func(rd *RecipeDiffer) {
		if p < 4 {
			p = 4
		}
		rd.seedLen = p
	}
}

// WithRecipeObserver attaches a metrics registry.
func WithRecipeObserver(r *obs.Registry) RecipeOption {
	return func(rd *RecipeDiffer) { rd.met = resolveRecipeMetrics(r) }
}

// NewRecipeDiffer returns a recipe differ with the options applied.
func NewRecipeDiffer(opts ...RecipeOption) *RecipeDiffer {
	rd := &RecipeDiffer{seedLen: 16, maxBits: 18, windowCap: DefaultRecipeWindow}
	for _, o := range opts {
		o(rd)
	}
	return rd
}

// DiffRecipes computes a delta that materializes the file newR describes
// from the file oldR describes, resolving chunk content through src.
// The result is equivalent to a full-image diff under Apply — the
// acceptance property the tests pin — while touching only matched-chunk
// metadata plus a bounded byte window per unmatched run.
//
// It works in three phases (DESIGN.md §14). Plan walks the recipes and
// lists the merged chunk copies and the unmatched runs between them.
// Diff hands the runs to min(GOMAXPROCS, runs) workers, each with its
// own pooled state; one worker runs inline. Stitch concatenates the
// copies and each run's commands and literal bytes in plan order. src
// must be safe for concurrent use.
func (rd *RecipeDiffer) DiffRecipes(oldR, newR chunk.Recipe, src chunk.Source) (*delta.Delta, error) {
	st := rd.getState()
	defer rd.putStates(st)
	newLen := rd.plan(st, oldR, newR)
	rd.diffRuns(st, newR, oldR, src)
	for k := range st.runs {
		if err := st.runs[k].err; err != nil {
			return nil, err
		}
	}
	d := &delta.Delta{
		RefLen:     st.oldStarts[len(oldR.Chunks)],
		VersionLen: newLen,
		Commands:   stitch(st),
	}
	if rd.met != nil {
		rd.met.diffs.Inc()
	}
	return d, nil
}

// getState takes a state from the pool, or makes one.
func (rd *RecipeDiffer) getState() *recipeState {
	st, _ := rd.pool.Get().(*recipeState)
	if st == nil {
		st = &recipeState{oldOff: make(map[chunk.ID]int64)}
	}
	return st
}

// putStates returns the calling goroutine's state and its helpers' to
// the pool.
func (rd *RecipeDiffer) putStates(st *recipeState) {
	for k, h := range st.helpers {
		rd.pool.Put(h)
		st.helpers[k] = nil
	}
	st.helpers = st.helpers[:0]
	for k := range st.runs {
		st.runs[k] = recipeRun{} // drop helper states and errors
	}
	rd.pool.Put(st)
}

// plan aligns the recipes: every new chunk the old file also holds
// becomes a whole-chunk copy, merged with its predecessor when the two
// are contiguous in the old file, and each maximal run of unmatched new
// chunks is recorded with the old context between its neighbouring
// matches. Metadata only; it returns the new file's length.
func (rd *RecipeDiffer) plan(st *recipeState, oldR, newR chunk.Recipe) int64 {
	clear(st.oldOff)
	st.oldStarts = st.oldStarts[:0]
	st.steps = st.steps[:0]
	st.runs = st.runs[:0]

	// First-occurrence offset of every old chunk, plus cumulative starts
	// for window materialization. O(#old chunks) metadata, not bytes.
	var off int64
	for _, c := range oldR.Chunks {
		st.oldStarts = append(st.oldStarts, off)
		if _, ok := st.oldOff[c.ID]; !ok {
			st.oldOff[c.ID] = off
		}
		off += c.Length
	}
	st.oldStarts = append(st.oldStarts, off)

	var pend recipeStep // pending merged whole-chunk copy
	runStart := -1      // first new-chunk index of the pending unmatched run
	var runTo int64     // its new-file offset
	gapLo := int64(0)   // old offset where the current gap's context begins
	var newOff int64

	flushCopy := func() {
		if pend.n > 0 {
			st.steps = append(st.steps, pend)
			if rd.met != nil {
				rd.met.chunkCopy.Add(pend.n)
			}
			pend.n = 0
		}
	}

	for i := 0; i <= len(newR.Chunks); i++ {
		var c chunk.Ref
		var at int64
		matched := false
		if i < len(newR.Chunks) {
			c = newR.Chunks[i]
			at, matched = st.oldOff[c.ID]
		}
		if !matched && i < len(newR.Chunks) {
			if runStart < 0 {
				runStart, runTo = i, newOff
			}
			newOff += c.Length
			continue
		}
		// A match (or the end sentinel) closes any pending unmatched run.
		if runStart >= 0 {
			flushCopy()
			gapHi := off
			if matched {
				gapHi = at
			}
			st.steps = append(st.steps, recipeStep{run: len(st.runs)})
			st.runs = append(st.runs, recipeRun{a: runStart, b: i, to: runTo, gapLo: gapLo, gapHi: gapHi})
			runStart = -1
		}
		if !matched {
			break // end sentinel
		}
		if pend.n > 0 && at == pend.from+pend.n {
			pend.n += c.Length // contiguous in the old file: extend
		} else {
			flushCopy()
			pend = recipeStep{from: at, to: newOff, n: c.Length, run: -1}
		}
		gapLo = at + c.Length
		newOff += c.Length
	}
	flushCopy()
	return newOff
}

// diffRuns diffs every planned run on min(GOMAXPROCS, runs) workers.
// The caller is a worker too, so one worker starts no goroutine.
func (rd *RecipeDiffer) diffRuns(st *recipeState, newR, oldR chunk.Recipe, src chunk.Source) {
	st.nextRun.Store(0)
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(st.runs)); w++ {
		ws := rd.getState()
		st.helpers = append(st.helpers, ws)
		st.workers.Add(1)
		go func() {
			defer st.workers.Done()
			rd.work(st, ws, newR, oldR, src)
		}()
	}
	rd.work(st, st, newR, oldR, src)
	st.workers.Wait()
}

// work is one worker: it takes st's runs in order from the shared
// counter and diffs each into ws's emitter, recording the spans of
// commands and literal bytes the run produced there.
func (rd *RecipeDiffer) work(st, ws *recipeState, newR, oldR chunk.Recipe, src chunk.Source) {
	ws.e.reset()
	for {
		k := int(st.nextRun.Add(1) - 1)
		if k >= len(st.runs) {
			return
		}
		run := &st.runs[k]
		ws.e.at = run.to
		run.st, run.cmdLo, run.litLo = ws, len(ws.e.cmds), len(ws.e.lits)
		run.err = rd.diffRun(ws, newR, run.a, run.b, oldR, st.oldStarts, src, run.gapLo, run.gapHi)
		ws.e.flushAdd()
		run.cmdHi, run.litHi = len(ws.e.cmds), len(ws.e.lits)
	}
}

// stitch assembles the plan into one detached command list over one
// literal arena: chunk copies as planned, each run's commands as its
// worker emitted them, with add arena offsets rebased from the worker's
// arena to the shared one. A chunk copy separates any two runs and the
// emitter never merges an add across a copy, so the result is the
// command list a single emitter walking the plan in order would build.
func stitch(st *recipeState) []delta.Command {
	ncmds, nlits := 0, 0
	for _, s := range st.steps {
		if s.run < 0 {
			ncmds++
			continue
		}
		r := &st.runs[s.run]
		ncmds += r.cmdHi - r.cmdLo
		nlits += r.litHi - r.litLo
	}
	cmds := make([]delta.Command, 0, ncmds)
	arena := make([]byte, 0, nlits)
	for _, s := range st.steps {
		if s.run < 0 {
			cmds = append(cmds, delta.NewCopy(s.from, s.to, s.n))
			continue
		}
		r := &st.runs[s.run]
		rebase := int64(len(arena) - r.litLo)
		arena = append(arena, r.st.e.lits[r.litLo:r.litHi]...)
		for _, c := range r.st.e.cmds[r.cmdLo:r.cmdHi] {
			if c.Op == delta.OpAdd {
				c.From += rebase
			}
			cmds = append(cmds, c)
		}
	}
	resolveAdds(cmds, arena)
	return cmds
}

// diffRun emits commands covering new chunks [a, b) — a run that matched
// nothing chunk-wise — by scanning their bytes against the old context
// window [gapLo, gapHi), both sides capped at windowCap. Copies found by
// the scan are rebased from window-relative to absolute old offsets.
func (rd *RecipeDiffer) diffRun(st *recipeState, newR chunk.Recipe, a, b int, oldR chunk.Recipe, oldStarts []int64, src chunk.Source, gapLo, gapHi int64) error {
	winLen := gapHi - gapLo
	if winLen > int64(rd.windowCap) {
		winLen = int64(rd.windowCap)
	}
	haveTable := false
	if winLen >= int64(rd.seedLen) {
		var err error
		st.oldWin, err = appendRecipeRange(st.oldWin[:0], oldR, oldStarts, src, gapLo, gapLo+winLen)
		if err != nil {
			return err
		}
		stride := strideFor(len(st.oldWin) - rd.seedLen + 1)
		indexed := (len(st.oldWin) - rd.seedLen + 1 + stride - 1) / stride
		st.table.prepare(tableBitsFor(rd.maxBits, indexed))
		buildTable(&st.table, st.oldWin, rd.seedLen, stride)
		haveTable = true
		if rd.met != nil {
			rd.met.runWindows.Inc()
		}
	}
	// Stream the run's new bytes through bounded segments.
	st.newSeg = st.newSeg[:0]
	flushSeg := func() {
		if len(st.newSeg) == 0 {
			return
		}
		if rd.met != nil {
			rd.met.runBytes.Add(int64(len(st.newSeg)))
		}
		if !haveTable {
			st.e.literal(st.newSeg)
		} else {
			mark := len(st.e.cmds)
			scanRange(&st.table, &st.e, st.oldWin, st.newSeg, rd.seedLen)
			// scanRange emitted copies relative to the window; rebase them
			// to absolute old-file offsets. Adds stash arena offsets in
			// From and must not be touched.
			for k := mark; k < len(st.e.cmds); k++ {
				if st.e.cmds[k].Op == delta.OpCopy {
					st.e.cmds[k].From += gapLo
				}
			}
		}
		st.newSeg = st.newSeg[:0]
	}
	for i := a; i < b; i++ {
		c := newR.Chunks[i]
		data, err := src.Chunk(c.ID)
		if err != nil {
			return fmt.Errorf("diff: recipe run chunk %d (%s): %w", i, c.ID, err)
		}
		if int64(len(data)) != c.Length {
			return fmt.Errorf("diff: recipe run chunk %d (%s): content length %d contradicts recipe %d", i, c.ID, len(data), c.Length)
		}
		st.newSeg = append(st.newSeg, data...)
		if len(st.newSeg) >= rd.windowCap {
			flushSeg()
		}
	}
	flushSeg()
	return nil
}

// appendRecipeRange materializes byte range [lo, hi) of the file r
// describes into dst, resolving chunks through src.
func appendRecipeRange(dst []byte, r chunk.Recipe, starts []int64, src chunk.Source, lo, hi int64) ([]byte, error) {
	i := sort.Search(len(r.Chunks), func(k int) bool { return starts[k+1] > lo })
	for ; i < len(r.Chunks) && starts[i] < hi; i++ {
		data, err := src.Chunk(r.Chunks[i].ID)
		if err != nil {
			return nil, fmt.Errorf("diff: recipe range chunk %d (%s): %w", i, r.Chunks[i].ID, err)
		}
		if int64(len(data)) != r.Chunks[i].Length {
			return nil, fmt.Errorf("diff: recipe range chunk %d (%s): content length %d contradicts recipe %d", i, r.Chunks[i].ID, len(data), r.Chunks[i].Length)
		}
		a, b := int64(0), int64(len(data))
		if lo > starts[i] {
			a = lo - starts[i]
		}
		if starts[i]+b > hi {
			b = hi - starts[i]
		}
		dst = append(dst, data[a:b]...)
	}
	return dst, nil
}

// RecipeAlgo adapts the recipe differ to the byte-level Algorithm
// interface: inputs are chunked into a shared dedup store on first
// sight (keyed by whole-input SHA-256, so a server diffing many clients
// against the same reference ingests it once) and subsequent diffs run
// over recipes. It is the "recipe" entry in ByName, which is how
// netupdate sessions and ipstore serve source their deltas from chunk
// recipes.
type RecipeAlgo struct {
	ck *chunk.Chunker
	cs *chunk.Store
	rd *RecipeDiffer

	mu      sync.Mutex
	recipes map[[sha256.Size]byte]chunk.Recipe
	order   [][sha256.Size]byte // FIFO bound on cached (pinned) recipes
	maxKeep int
}

// RecipeAlgoOption customizes a RecipeAlgo.
type RecipeAlgoOption func(*RecipeAlgo)

// WithRecipeStore shares an existing chunk store (and its dedup state)
// instead of a private one.
func WithRecipeStore(cs *chunk.Store) RecipeAlgoOption {
	return func(a *RecipeAlgo) { a.cs = cs }
}

// WithRecipeDiffer substitutes a configured differ.
func WithRecipeDiffer(rd *RecipeDiffer) RecipeAlgoOption {
	return func(a *RecipeAlgo) { a.rd = rd }
}

// WithRecipeCacheSize bounds how many distinct inputs stay pinned as
// recipes (default 8); older entries release their chunk references to
// the store's LRU.
func WithRecipeCacheSize(n int) RecipeAlgoOption {
	return func(a *RecipeAlgo) {
		if n > 0 {
			a.maxKeep = n
		}
	}
}

// NewRecipeAlgo returns a recipe-backed Algorithm with default chunking
// parameters and a private bounded chunk store.
func NewRecipeAlgo(opts ...RecipeAlgoOption) *RecipeAlgo {
	ck, err := chunk.NewChunker(chunk.Params{})
	if err != nil {
		panic(err) // defaults are statically valid
	}
	a := &RecipeAlgo{
		ck:      ck,
		rd:      NewRecipeDiffer(),
		recipes: make(map[[sha256.Size]byte]chunk.Recipe),
		maxKeep: 8,
	}
	for _, o := range opts {
		o(a)
	}
	if a.cs == nil {
		a.cs = chunk.NewStore()
	}
	return a
}

// Name implements Algorithm.
func (a *RecipeAlgo) Name() string { return "recipe" }

// Diff implements Algorithm: chunk (or recall) both inputs, then diff
// their recipes.
func (a *RecipeAlgo) Diff(ref, version []byte) (*delta.Delta, error) {
	ro := a.recipeFor(ref)
	rn := a.recipeFor(version)
	return a.rd.DiffRecipes(ro, rn, a.cs)
}

// recipeFor returns the cached recipe of data, ingesting it on a miss.
func (a *RecipeAlgo) recipeFor(data []byte) chunk.Recipe {
	key := sha256.Sum256(data)
	a.mu.Lock()
	if r, ok := a.recipes[key]; ok {
		a.mu.Unlock()
		return r
	}
	a.mu.Unlock()

	r := a.cs.IngestAll(a.ck, data) // concurrent-safe; may race a twin
	a.mu.Lock()
	if prev, ok := a.recipes[key]; ok {
		a.mu.Unlock()
		a.cs.ReleaseRecipe(r) // a twin won the install; drop our references
		return prev
	}
	a.recipes[key] = r
	a.order = append(a.order, key)
	var evicted []chunk.Recipe
	for len(a.order) > a.maxKeep {
		old := a.order[0]
		a.order = a.order[1:]
		evicted = append(evicted, a.recipes[old])
		delete(a.recipes, old)
	}
	a.mu.Unlock()
	for _, e := range evicted {
		a.cs.ReleaseRecipe(e)
	}
	return r
}

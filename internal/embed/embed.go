// Package embed trains small distributional embeddings for identifier
// tokens, standing in for the BERT and VarCLR encoders used by the paper's
// semantic similarity metrics (BERTScore F1 and VarCLR).
//
// The pipeline is classical: identifiers are split into subtokens
// (snake_case, camelCase, digits), a token-token co-occurrence matrix is
// accumulated over a corpus of identifier contexts, the matrix is
// reweighted with positive pointwise mutual information (PPMI), and a
// low-rank representation is extracted by truncated SVD via orthogonal
// power iteration. Cosine similarity in the resulting space captures
// semantic relatedness (e.g. "size" ≈ "length") that the paper's
// surface-level metrics miss — exactly the contrast RQ5 investigates.
package embed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"decompstudy/internal/fault"
	"decompstudy/internal/linalg"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
)

// ErrEmptyCorpus is returned when training is attempted on an empty corpus.
var ErrEmptyCorpus = errors.New("embed: empty corpus")

// ErrTrain is returned when embedding training fails.
var ErrTrain = errors.New("embed: training failed")

// ErrUnknownToken is returned when a similarity query involves only
// out-of-vocabulary tokens.
var ErrUnknownToken = errors.New("embed: token not in vocabulary")

// SplitIdentifier splits an identifier into lowercase subtokens on
// underscores, camelCase boundaries, and digit group boundaries.
// "bufAppendPathLen2" → ["buf", "append", "path", "len", "2"].
func SplitIdentifier(id string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(id)
	for i, r := range runes {
		switch {
		case r == '_' || r == ' ' || r == '-':
			flush()
		case unicode.IsUpper(r):
			// Boundary before an upper rune that follows a lower rune, or
			// that begins a new word after an acronym run (e.g. "SSLKey").
			if i > 0 && (unicode.IsLower(runes[i-1]) || unicode.IsDigit(runes[i-1])) {
				flush()
			} else if i > 0 && unicode.IsUpper(runes[i-1]) && i+1 < len(runes) && unicode.IsLower(runes[i+1]) {
				flush()
			}
			cur.WriteRune(r)
		case unicode.IsDigit(r):
			if i > 0 && !unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			if i > 0 && unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		}
	}
	flush()
	return tokens
}

// Model is a trained embedding space over identifier subtokens. The
// query methods are safe for concurrent use: the trained state is
// immutable, and the similarity memo-cache (see cache.go) synchronizes
// internally.
type Model struct {
	vocab   map[string]int
	tokens  []string
	vectors *linalg.Matrix // |V| × dim
	dim     int

	// Normalization state computed once at train time so query-path
	// cosines reduce to dot products: rowNorm[i] is the L2 norm of row i
	// of vectors, and unit holds the L2-normalized rows (zero rows stay
	// zero). See DESIGN.md's cosine-normalization row for why the
	// identifier-level Cosine keeps the dot/(na·nb) form instead.
	rowNorm []float64
	unit    *linalg.Matrix

	// idvecs caches per-identifier mean vectors and their norms so the
	// similarity miss path is a single dot product (see cache.go).
	idvecs *vecCache

	// cache memoizes pairwise cosine similarities; created lazily on the
	// first Cosine call via cacheOnce (see simCache).
	cacheOnce sync.Once
	cache     *simCache

	// obsHits/obsMisses are live registry counters bumped per Cosine
	// lookup when the model was trained under an obs handle, so a
	// /debug/metrics scrape mid-run shows cache traffic without waiting
	// for the end-of-run CacheStats export. Nil without telemetry.
	obsHits, obsMisses *obs.Counter
}

// Config controls training.
type Config struct {
	// Dim is the embedding dimensionality. Zero means 32 (or |V| if the
	// vocabulary is smaller).
	Dim int
	// Window is the co-occurrence window radius within a context. Zero
	// means 4.
	Window int
	// Iterations is the power-iteration count per component. Zero means 40.
	Iterations int
}

func (c *Config) defaults() Config {
	out := Config{Dim: 32, Window: 4, Iterations: 40}
	if c == nil {
		return out
	}
	if c.Dim > 0 {
		out.Dim = c.Dim
	}
	if c.Window > 0 {
		out.Window = c.Window
	}
	if c.Iterations > 0 {
		out.Iterations = c.Iterations
	}
	return out
}

// Resolved returns the configuration with defaults applied — the exact
// parameters a Train call with this config uses, which is what a
// content-addressed cache must key on.
func (c *Config) Resolved() Config { return c.defaults() }

// Train builds an embedding model from a corpus of contexts. Each context
// is a sequence of identifiers that appear together (for this project: the
// identifiers of one function, in source order). Identifiers are split into
// subtokens before windowed co-occurrence counting.
func Train(contexts [][]string, cfg *Config) (*Model, error) {
	return TrainCtx(context.Background(), contexts, cfg)
}

// TrainCtx is Train with telemetry: an embed.Train span plus corpus-size
// counters when the context carries an obs handle.
func TrainCtx(octx context.Context, contexts [][]string, cfg *Config) (*Model, error) {
	_, sp := obs.StartSpan(octx, "embed.Train", obs.KV("contexts", len(contexts)))
	defer sp.End()
	if err := fault.Check(octx, fault.EmbedTrain); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTrain, err)
	}
	obs.AddCount(octx, "embed.train.calls", 1)
	c := cfg.defaults()

	// Tokenize contexts and build the vocabulary.
	vocab := map[string]int{}
	var tokens []string
	tokenized := make([][]int, 0, len(contexts))
	for _, ctx := range contexts {
		var ids []int
		for _, ident := range ctx {
			for _, tok := range SplitIdentifier(ident) {
				id, ok := vocab[tok]
				if !ok {
					id = len(tokens)
					vocab[tok] = id
					tokens = append(tokens, tok)
				}
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			tokenized = append(tokenized, ids)
		}
	}
	v := len(tokens)
	if v == 0 {
		return nil, ErrEmptyCorpus
	}
	sp.SetAttr("vocab", v)

	// Windowed co-occurrence counts (symmetric), accumulated sparsely:
	// within-window pairs touch a vanishing fraction of the |V|×|V| cells,
	// so per-row hash maps replace the dense count matrix. The counts are
	// small integers, so float accumulation is exact and order-free.
	cooc := make([]map[int]float64, v)
	inc := func(a, b int) {
		row := cooc[a]
		if row == nil {
			row = make(map[int]float64, 8)
			cooc[a] = row
		}
		row[b]++
	}
	rowSum := make([]float64, v)
	var total float64
	for _, ids := range tokenized {
		for i, a := range ids {
			hi := i + c.Window
			if hi >= len(ids) {
				hi = len(ids) - 1
			}
			for j := i + 1; j <= hi; j++ {
				b := ids[j]
				inc(a, b)
				inc(b, a)
				rowSum[a]++
				rowSum[b]++
				total += 2
			}
			// Self-count keeps singleton contexts in-vocabulary.
			inc(a, a)
			rowSum[a]++
			total++
		}
	}

	// PPMI reweighting: max(0, log(p(a,b) / (p(a)p(b)))), built directly
	// in CSR form. Rows are independent, so the sweep fans out across row
	// chunks; each chunk writes disjoint per-row slices, columns are
	// visited in ascending order, and the per-cell arithmetic matches the
	// dense formulation, so the matrix is byte-identical at any worker
	// count (and to the dense build it replaced).
	jobs := par.JobsFrom(octx)
	sp.SetAttr("jobs", jobs)
	rowCols := make([][]int, v)
	rowVals := make([][]float64, v)
	if _, err := par.Map(octx, jobs, par.Chunks(v, jobs), func(_ context.Context, _ int, ch [2]int) (struct{}, error) {
		for a := ch[0]; a < ch[1]; a++ {
			counts := cooc[a]
			cols := make([]int, 0, len(counts))
			for b := range counts {
				cols = append(cols, b)
			}
			sort.Ints(cols)
			vals := make([]float64, 0, len(cols))
			keep := cols[:0]
			for _, b := range cols {
				val := math.Log(counts[b] * total / (rowSum[a] * rowSum[b]))
				if val > 0 {
					keep = append(keep, b)
					vals = append(vals, val)
				}
			}
			rowCols[a], rowVals[a] = keep, vals
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, fmt.Errorf("embed: reweighting PPMI matrix: %w", err)
	}
	rowPtr := make([]int, v+1)
	nnz := 0
	for a, cols := range rowCols {
		nnz += len(cols)
		rowPtr[a+1] = nnz
	}
	colIdx := make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)
	for a := range rowCols {
		colIdx = append(colIdx, rowCols[a]...)
		vals = append(vals, rowVals[a]...)
	}
	ppmi, err := linalg.NewCSR(v, v, rowPtr, colIdx, vals)
	if err != nil {
		return nil, fmt.Errorf("embed: assembling PPMI matrix: %w", err)
	}
	sp.SetAttr("nnz", ppmi.NNZ())

	dim := c.Dim
	if dim > v {
		dim = v
	}
	vectors, err := truncatedEig(ppmi, dim, c.Iterations, jobs)
	if err != nil {
		return nil, fmt.Errorf("embed: factorizing PPMI matrix: %w", err)
	}
	m := &Model{vocab: vocab, tokens: tokens, vectors: vectors, dim: dim, idvecs: newVecCache()}
	m.normalize()
	if o := obs.From(octx); o != nil && o.Metrics != nil {
		m.obsHits = o.Metrics.CounterL("embed.cache.lookups", obs.L("result", "hit"))
		m.obsMisses = o.Metrics.CounterL("embed.cache.lookups", obs.L("result", "miss"))
	}
	return m, nil
}

// normalize computes the train-time normalization state: per-row L2 norms
// and unit rows. Zero rows (rank-exhausted components or out-of-support
// tokens) keep zero units so similarity against them degrades to the
// exact-match fallback, exactly as before.
func (m *Model) normalize() {
	v := m.vectors.Rows()
	m.rowNorm = make([]float64, v)
	m.unit = linalg.NewMatrix(v, m.dim)
	for i := 0; i < v; i++ {
		row := m.vectors.RowView(i)
		s := 0.0
		for _, x := range row {
			s += x * x
		}
		n := math.Sqrt(s)
		m.rowNorm[i] = n
		if n == 0 {
			continue
		}
		u := m.unit.RowView(i)
		for j, x := range row {
			u[j] = x / n
		}
	}
}

// truncatedEig extracts the top-k eigenpairs of a symmetric sparse matrix
// by orthogonalized power iteration and returns the |V|×k matrix of
// eigenvector columns scaled by sqrt(|eigenvalue|) (the symmetric-SVD
// embedding convention). The matrix-vector products — the O(nnz) inner
// loop the iteration spends its time in — are row-parallel across jobs
// workers and write into a ping-pong scratch buffer, so the whole
// factorization allocates one vector per component instead of one per
// iteration; each row's dot product keeps its sequential left-to-right
// arithmetic order, so the result is bit-identical at any worker count
// (and to the dense formulation it replaced).
func truncatedEig(m *linalg.CSR, k, iters, jobs int) (*linalg.Matrix, error) {
	v := m.Rows()
	out := linalg.NewMatrix(v, k)
	basis := make([][]float64, 0, k)
	y := make([]float64, v) // matvec scratch, recycled via buffer swap
	for comp := 0; comp < k; comp++ {
		// Deterministic pseudo-random start vector.
		x := make([]float64, v)
		seed := uint64(comp)*2654435761 + 12345
		for i := range x {
			seed = seed*6364136223846793005 + 1442695040888963407
			x[i] = float64(int64(seed>>33))/float64(1<<30) - 1
		}
		// deflate removes the projections onto previously found
		// eigenvectors (modified Gram-Schmidt). Each update is fused with
		// the projection against the next basis vector via AXPYDot — one
		// memory pass instead of two, with the exact arithmetic of the
		// AXPY(-Dot(b, v), b, v) sweep it replaces.
		deflate := func(v []float64) {
			last := len(basis) - 1
			if last < 0 {
				return
			}
			d := linalg.Dot(basis[0], v)
			for i := 0; i < last; i++ {
				d = linalg.AXPYDot(-d, basis[i], v, basis[i+1])
			}
			linalg.AXPY(-d, basis[last], v)
		}
		var lambda float64
		for it := 0; it < iters; it++ {
			deflate(x)
			if err := mulVecTo(y, m, x, jobs); err != nil {
				return nil, err
			}
			deflate(y)
			norm := linalg.Norm2(y)
			if norm < 1e-12 {
				// Matrix rank exhausted; remaining components are zero.
				lambda = 0
				break
			}
			lambda = linalg.Dot(x, y)
			linalg.Scale(1/norm, y)
			// The normalized product becomes the new iterate; the old
			// iterate's storage becomes the next matvec destination.
			x, y = y, x
		}
		basis = append(basis, x)
		scale := math.Sqrt(math.Abs(lambda))
		for i := 0; i < v; i++ {
			out.Set(i, comp, x[i]*scale)
		}
	}
	return out, nil
}

// mulVecTo is a row-parallel sparse matrix-vector product into a caller-
// supplied destination. Below the size threshold (or single-worker) it is
// exactly CSR.MulVecTo; above it, row chunks fan out and each worker
// writes a disjoint slice of dst.
func mulVecTo(dst []float64, m *linalg.CSR, x []float64, jobs int) error {
	const minRowsPerWorker = 64
	rows := m.Rows()
	if maxJobs := rows / minRowsPerWorker; jobs > maxJobs {
		jobs = maxJobs
	}
	if jobs <= 1 {
		return m.MulVecTo(dst, x)
	}
	if m.Cols() != len(x) {
		return fmt.Errorf("embed: mulVec dimension mismatch: %d cols vs %d", m.Cols(), len(x))
	}
	if _, err := par.Map(context.Background(), jobs, par.Chunks(rows, jobs), func(_ context.Context, _ int, ch [2]int) (struct{}, error) {
		for i := ch[0]; i < ch[1]; i++ {
			dst[i] = m.RowDot(i, x)
		}
		return struct{}{}, nil
	}); err != nil {
		return err
	}
	return nil
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the number of subtokens in the vocabulary.
func (m *Model) VocabSize() int { return len(m.tokens) }

// Contains reports whether at least one subtoken of the identifier is in
// the vocabulary.
func (m *Model) Contains(identifier string) bool {
	for _, tok := range SplitIdentifier(identifier) {
		if _, ok := m.vocab[tok]; ok {
			return true
		}
	}
	return false
}

// Vector returns the embedding of an identifier: the mean of its in-
// vocabulary subtoken vectors. It returns ErrUnknownToken if no subtoken is
// known. The mean is computed once per identifier and memoized (see
// identVec); the returned slice is a private copy.
func (m *Model) Vector(identifier string) ([]float64, error) {
	e := m.identVec(identifier)
	if !e.known {
		return nil, fmt.Errorf("embed: %q: %w", identifier, ErrUnknownToken)
	}
	out := make([]float64, m.dim)
	copy(out, e.vec)
	return out, nil
}

// identVecUncached computes an identifier's mean subtoken vector and its
// norm — the arithmetic behind Vector, split out so the vecCache can
// memoize it. The accumulation order matches the historical Vector
// implementation element-for-element, keeping cosines byte-identical.
func (m *Model) identVecUncached(identifier string) vecEntry {
	sum := make([]float64, m.dim)
	n := 0
	for _, tok := range SplitIdentifier(identifier) {
		id, ok := m.vocab[tok]
		if !ok {
			continue
		}
		row := m.vectors.RowView(id)
		for j, x := range row {
			sum[j] += x
		}
		n++
	}
	if n == 0 {
		return vecEntry{}
	}
	linalg.Scale(1/float64(n), sum)
	return vecEntry{vec: sum, norm: linalg.Norm2(sum), known: true}
}

// Cosine returns the cosine similarity of two identifiers' embeddings in
// [-1, 1]. Out-of-vocabulary identifiers fall back to exact-match
// similarity (1 if equal, 0 otherwise), mirroring how the paper's
// embedding metrics degrade on unseen names. Results are memoized in the
// model's sharded content-hash cache, so repeated pairs — the common case
// in BERTScore's bidirectional token sweeps — cost one map lookup; a miss
// costs one dot product plus two cached identifier-vector lookups, with
// the wall-clock spent on misses tracked for the obs miss-cost gauge.
func (m *Model) Cosine(a, b string) float64 {
	c := m.simCache()
	k := pairKey(a, b)
	if v, ok := c.get(k); ok {
		if m.obsHits != nil {
			m.obsHits.Inc()
		}
		return v
	}
	if m.obsMisses != nil {
		m.obsMisses.Inc()
	}
	t0 := time.Now()
	v := m.cosineUncached(a, b)
	c.missNanos.Add(time.Since(t0).Nanoseconds())
	c.put(k, v)
	return v
}

// cosineUncached is the raw similarity computation behind Cosine. The
// identifier mean vectors and their norms come precomputed from the
// vecCache, so the steady-state miss path is a single dot product and a
// divide — no tokenization, no norm recomputation.
func (m *Model) cosineUncached(a, b string) float64 {
	ea := m.identVec(a)
	eb := m.identVec(b)
	if !ea.known || !eb.known || ea.norm == 0 || eb.norm == 0 {
		if strings.EqualFold(a, b) {
			return 1
		}
		return 0
	}
	return linalg.Dot(ea.vec, eb.vec) / (ea.norm * eb.norm)
}

// Nearest returns the k nearest vocabulary subtokens to the identifier by
// cosine similarity, most similar first.
func (m *Model) Nearest(identifier string, k int) ([]string, error) {
	q, err := m.Vector(identifier)
	if err != nil {
		return nil, err
	}
	nq := linalg.Norm2(q)
	if nq == 0 {
		return nil, fmt.Errorf("embed: %q has zero vector: %w", identifier, ErrUnknownToken)
	}
	type scored struct {
		tok string
		sim float64
	}
	// The unit rows are precomputed at train time, so each candidate costs
	// one dot product instead of a norm plus a dot.
	scores := make([]scored, 0, len(m.tokens))
	for id, tok := range m.tokens {
		if m.rowNorm[id] == 0 {
			continue
		}
		scores = append(scores, scored{tok, linalg.Dot(q, m.unit.RowView(id)) / nq})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].sim > scores[j].sim })
	if k > len(scores) {
		k = len(scores)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = scores[i].tok
	}
	return out, nil
}

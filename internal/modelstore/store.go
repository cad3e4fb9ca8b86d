// Package modelstore is a content-addressed cache for trained models. A
// model is identified by the sha256 of everything its training depends on
// — the corpus content, the resolved training configuration, the format
// version, and the training seed — so a lookup either returns a model
// bit-identical to what training would produce or trains one. Nothing is
// ever invalidated by time or by hand: editing the corpus or the training
// parameters changes the key, and the stale entry is simply never asked
// for again.
//
// The store has two tiers. The in-process tier is a sharded map (the same
// FNV-over-shards idiom as embed's similarity cache) holding live model
// pointers; models are immutable after training, so a pointer can be
// shared by every study run in the process. The optional on-disk tier
// (-model-cache DIR) persists models across processes in a checksummed
// binary format written atomically (temp file + rename); a corrupted or
// truncated file is treated as a miss and retrained, never trusted.
//
// Concurrent requests for the same key are single-flighted: one caller
// trains, the rest wait for the result. A failed training stores nothing —
// an injected fault or a genuine error can never leave a poisoned model
// behind — and waiters whose winner was cancelled retry the build
// themselves rather than inheriting someone else's cancellation.
//
// Telemetry: every lookup bumps the labeled counter
// modelstore.lookups{result=hit|miss|disk_hit}, and Stats() exposes the
// same tallies programmatically for benchmarks.
package modelstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"decompstudy/internal/csrc"
	"decompstudy/internal/embed"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
)

// ErrCacheDir is returned by Open when the cache directory is unusable.
var ErrCacheDir = errors.New("modelstore: unusable cache directory")

// Key identifies one trained model: a sha256 over the training inputs.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// trainSeed is the training-RNG seed component of every key. Both trainers
// are deterministic with fixed internal seeds today, so this is a
// constant; if a trainer ever grows a seed parameter, it joins the key
// here and old cache entries invalidate themselves.
const trainSeed = 0

const numShards = 16

type shard struct {
	mu sync.RWMutex
	m  map[Key]any
}

// Store is the two-tier content-addressed model cache. The zero value is
// not usable; construct with New or Open.
type Store struct {
	dir string // "" = in-memory only

	shards [numShards]shard

	fmu    sync.Mutex
	flight map[Key]*call

	lookups, hits, misses, diskHits, diskErrors, trains atomic.Int64
}

// call is one in-flight training, shared by every waiter for its key.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Stats is a snapshot of the store's lookup tallies. Lookups = Hits +
// Misses + DiskHits; Trains counts actual training runs (≤ Misses, since
// single-flighted waiters count as hits).
type Stats struct {
	Lookups, Hits, Misses, DiskHits, DiskErrors, Trains int64
}

// HitRate is the fraction of lookups served without training.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(s.Lookups)
}

// New returns an in-memory-only store.
func New() *Store {
	s := &Store{flight: map[Key]*call{}}
	for i := range s.shards {
		s.shards[i].m = map[Key]any{}
	}
	return s
}

// Open returns a store backed by an on-disk cache directory. The directory
// must already exist and be writable; anything else — missing, a plain
// file, read-only — is ErrCacheDir naming the path, so a CLI typo fails
// fast instead of silently training from scratch every run.
func Open(dir string) (*Store, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCacheDir, dir, err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("%w: %s: not a directory", ErrCacheDir, dir)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("%w: %s: not writable: %v", ErrCacheDir, dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	s := New()
	s.dir = dir
	return s, nil
}

// Dir returns the on-disk cache directory, or "" for an in-memory store.
func (s *Store) Dir() string { return s.dir }

// FromFlags resolves the CLI cache flags shared by every command: nil when
// -no-model-cache disabled caching, a disk-backed store for -model-cache
// DIR (failing with ErrCacheDir on an unusable directory), an in-memory
// store otherwise.
func FromFlags(dir string, disable bool) (*Store, error) {
	if disable {
		return nil, nil
	}
	if dir != "" {
		return Open(dir)
	}
	return New(), nil
}

// Stats returns a snapshot of the lookup tallies.
func (s *Store) Stats() Stats {
	return Stats{
		Lookups:    s.lookups.Load(),
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		DiskHits:   s.diskHits.Load(),
		DiskErrors: s.diskErrors.Load(),
		Trains:     s.trains.Load(),
	}
}

type ctxKey struct{}

// With attaches the store to the context; stages below pick it up via
// From. A nil store returns the context unchanged.
func With(ctx context.Context, s *Store) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// From returns the context's store, or nil when none was attached.
func From(ctx context.Context) *Store {
	s, _ := ctx.Value(ctxKey{}).(*Store)
	return s
}

// EmbedModel returns the embedding model for (contexts, cfg), training it
// on a miss. The key covers every identifier of every context, the
// resolved configuration, and the training seed. Errors from a miss-path
// training are exactly embed.TrainCtx's — including injected faults — and
// a failed training is never stored. A nil store (caching disabled) trains
// directly every call.
func (s *Store) EmbedModel(ctx context.Context, contexts [][]string, cfg *embed.Config) (*embed.Model, error) {
	if s == nil {
		return embed.TrainCtx(ctx, contexts, cfg)
	}
	v, err := s.get(ctx, EmbedKey(contexts, cfg), embedCodec{},
		func(ctx context.Context) (any, error) { return embed.TrainCtx(ctx, contexts, cfg) })
	if err != nil {
		return nil, err
	}
	return v.(*embed.Model), nil
}

// NamerecModel returns the recovery model trained from the given sources,
// training on a miss. files supplies the parsed sources only when training
// actually runs, so a cache hit never pays the parse. The sources must be
// the exact text the files were parsed from — they are the key material.
// A nil store (caching disabled) trains directly every call.
func (s *Store) NamerecModel(ctx context.Context, sources []string, files func() ([]*csrc.File, error)) (*namerec.Model, error) {
	train := func(ctx context.Context) (*namerec.Model, error) {
		fs, err := files()
		if err != nil {
			return nil, err
		}
		return namerec.TrainModelCtx(ctx, fs)
	}
	if s == nil {
		return train(ctx)
	}
	v, err := s.get(ctx, NamerecKey(sources), namerecCodec{},
		func(ctx context.Context) (any, error) { return train(ctx) })
	if err != nil {
		return nil, err
	}
	return v.(*namerec.Model), nil
}

// EmbedKey computes the content address of an embedding model: format
// version, resolved configuration, training seed, and every context's
// identifiers with unambiguous length framing.
func EmbedKey(contexts [][]string, cfg *embed.Config) Key {
	c := cfg.Resolved()
	h := sha256.New()
	fmt.Fprintf(h, "decompstudy/modelstore embed v%d\n", marshalGeneration)
	writeInts(h, int64(c.Dim), int64(c.Window), int64(c.Iterations), trainSeed)
	writeInts(h, int64(len(contexts)))
	for _, ctx := range contexts {
		writeInts(h, int64(len(ctx)))
		for _, ident := range ctx {
			writeStr(h, ident)
		}
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// NamerecKey computes the content address of a recovery model: format
// version, training seed, and the raw corpus sources in order.
func NamerecKey(sources []string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "decompstudy/modelstore namerec v%d\n", marshalGeneration)
	writeInts(h, trainSeed, int64(len(sources)))
	for _, src := range sources {
		writeStr(h, src)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// marshalGeneration versions the keys alongside the disk format: bumping
// it (when a model's serialization changes) orphans old disk entries
// instead of misreading them. Generation 2: namerec training orders its
// examples by name, so generation-1 recovery models (examples in map
// order) no longer match what training produces.
const marshalGeneration = 2

func writeInts(h interface{ Write([]byte) (int, error) }, vs ...int64) {
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vs {
		h.Write(buf[:binary.PutVarint(buf[:], v)])
	}
}

func writeStr(h interface{ Write([]byte) (int, error) }, s string) {
	writeInts(h, int64(len(s)))
	h.Write([]byte(s))
}

// get is the two-tier single-flighted lookup. codec may be nil for values
// that live only in memory.
func (s *Store) get(ctx context.Context, key Key, c codec, build func(context.Context) (any, error)) (any, error) {
	s.lookups.Add(1)
	if v, ok := s.load(key); ok {
		s.hits.Add(1)
		obs.AddCountL(ctx, "modelstore.lookups", 1, obs.L("result", "hit"))
		return v, nil
	}
	for {
		s.fmu.Lock()
		// Re-check under the flight lock: the previous winner may have
		// published between our shard read and here.
		if v, ok := s.load(key); ok {
			s.fmu.Unlock()
			s.hits.Add(1)
			obs.AddCountL(ctx, "modelstore.lookups", 1, obs.L("result", "hit"))
			return v, nil
		}
		if cl, ok := s.flight[key]; ok {
			s.fmu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if cl.err == nil {
				s.hits.Add(1)
				obs.AddCountL(ctx, "modelstore.lookups", 1, obs.L("result", "hit"))
				return cl.val, nil
			}
			// The winner failed. Its cancellation is not ours: if our own
			// context is still live, take over the build; a genuine training
			// failure propagates to every waiter as-is.
			if isCancellation(cl.err) && ctx.Err() == nil {
				continue
			}
			return nil, cl.err
		}
		cl := &call{done: make(chan struct{})}
		s.flight[key] = cl
		s.fmu.Unlock()

		cl.val, cl.err = s.buildMiss(ctx, key, c, build)
		s.fmu.Lock()
		delete(s.flight, key)
		s.fmu.Unlock()
		close(cl.done)
		return cl.val, cl.err
	}
}

// buildMiss resolves a miss for the winning caller: disk first, then a
// real training run. Only a successful result is published.
func (s *Store) buildMiss(ctx context.Context, key Key, c codec, build func(context.Context) (any, error)) (any, error) {
	if s.dir != "" && c != nil {
		if v, ok := s.loadDisk(ctx, key, c); ok {
			s.diskHits.Add(1)
			obs.AddCountL(ctx, "modelstore.lookups", 1, obs.L("result", "disk_hit"))
			s.publish(key, v)
			return v, nil
		}
	}
	s.misses.Add(1)
	obs.AddCountL(ctx, "modelstore.lookups", 1, obs.L("result", "miss"))
	s.trains.Add(1)
	v, err := build(ctx)
	if err != nil {
		return nil, err
	}
	s.publish(key, v)
	if s.dir != "" && c != nil {
		s.writeDisk(ctx, key, c, v)
	}
	return v, nil
}

func (s *Store) shardFor(key Key) *shard {
	// The key is already a cryptographic hash; its first byte is as good a
	// shard selector as rehashing would be.
	return &s.shards[int(key[0])%numShards]
}

func (s *Store) load(key Key) (any, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

func (s *Store) publish(key Key, v any) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// --- disk tier ---

// Disk entry layout: magic, format generation, the full key, a uvarint
// payload length, the payload, and a sha256 of the payload. The key in the
// file guards against renamed files; the checksum against torn writes.
const diskMagic = "DSMSTORE"

func (s *Store) path(key Key) string {
	return filepath.Join(s.dir, key.String()+".model")
}

func (s *Store) loadDisk(ctx context.Context, key Key, c codec) (any, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false // not on disk: a plain miss, not an error
	}
	payload, err := decodeDiskEntry(data, key)
	if err != nil {
		s.diskError(ctx, err)
		return nil, false
	}
	v, err := c.unmarshal(ctx, payload)
	if err != nil {
		s.diskError(ctx, err)
		return nil, false
	}
	return v, true
}

func decodeDiskEntry(data []byte, key Key) ([]byte, error) {
	if len(data) < len(diskMagic)+1+len(key) || string(data[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("modelstore: %s: bad magic", key)
	}
	off := len(diskMagic)
	gen, n := binary.Uvarint(data[off:])
	if n <= 0 || gen != marshalGeneration {
		return nil, fmt.Errorf("modelstore: %s: format generation mismatch", key)
	}
	off += n
	if off+len(key) > len(data) || Key(data[off:off+len(key)]) != key {
		return nil, fmt.Errorf("modelstore: %s: key mismatch", key)
	}
	off += len(key)
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, fmt.Errorf("modelstore: %s: truncated length", key)
	}
	off += n
	if off+int(plen)+sha256.Size != len(data) {
		return nil, fmt.Errorf("modelstore: %s: truncated payload", key)
	}
	payload := data[off : off+int(plen)]
	sum := sha256.Sum256(payload)
	if [sha256.Size]byte(data[off+int(plen):]) != sum {
		return nil, fmt.Errorf("modelstore: %s: checksum mismatch", key)
	}
	return payload, nil
}

// writeDisk persists a model atomically. A write failure (disk full, a
// permission change after Open) degrades the store to in-memory for that
// entry: the error is counted and logged, never propagated — the caller
// already holds a perfectly good model.
func (s *Store) writeDisk(ctx context.Context, key Key, c codec, v any) {
	payload, err := c.marshal(v)
	if err != nil {
		s.diskError(ctx, err)
		return
	}
	var buf []byte
	buf = append(buf, diskMagic...)
	buf = binary.AppendUvarint(buf, marshalGeneration)
	buf = append(buf, key[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)

	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		s.diskError(ctx, err)
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(name)
		s.diskError(ctx, err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		s.diskError(ctx, err)
		return
	}
	if err := os.Rename(name, s.path(key)); err != nil {
		os.Remove(name)
		s.diskError(ctx, err)
		return
	}
}

func (s *Store) diskError(ctx context.Context, err error) {
	s.diskErrors.Add(1)
	obs.AddCount(ctx, "modelstore.disk_errors", 1)
	obs.Logger(ctx).Error("modelstore disk tier error", "err", err)
}

// --- codecs ---

// codec (de)serializes one model kind for the disk tier.
type codec interface {
	marshal(v any) ([]byte, error)
	unmarshal(ctx context.Context, data []byte) (any, error)
}

type embedCodec struct{}

func (embedCodec) marshal(v any) ([]byte, error) { return v.(*embed.Model).MarshalBinary() }
func (embedCodec) unmarshal(ctx context.Context, data []byte) (any, error) {
	m, err := embed.UnmarshalModel(data)
	if err != nil {
		return nil, err
	}
	// Bind the live telemetry counters exactly as a fresh train would,
	// before the model escapes the single-flight build.
	m.BindObs(ctx)
	return m, nil
}

type namerecCodec struct{}

func (namerecCodec) marshal(v any) ([]byte, error) { return v.(*namerec.Model).MarshalBinary() }
func (namerecCodec) unmarshal(_ context.Context, data []byte) (any, error) {
	return namerec.UnmarshalModel(data)
}

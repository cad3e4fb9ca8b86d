// Package modelstore is a content-addressed cache for trained models. A
// model is identified by the sha256 of everything its training depends on
// — the model kind, the corpus content, the resolved training
// configuration, and the training seed — so a lookup either returns a
// model bit-identical to what training would produce or trains one.
// Nothing is ever invalidated by time or by hand: editing the corpus or
// the training parameters changes the key, and the stale entry is simply
// never asked for again.
//
// The store is a sharded in-process map holding live model pointers;
// models are immutable after training, so a pointer can be shared by
// every study run in the process — served and the ablation grid train
// each model once.
//
// Concurrent requests for the same key are single-flighted: one caller
// trains, the rest wait for the result. A failed training stores nothing —
// an injected fault or a genuine error can never leave a poisoned model
// behind — and waiters whose winner was cancelled retry the build
// themselves rather than inheriting someone else's cancellation.
//
// Telemetry: every lookup bumps the labeled counter
// modelstore.lookups{result=hit|miss}, and Stats() exposes the same
// tallies programmatically for benchmarks.
package modelstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"

	"decompstudy/internal/csrc"
	"decompstudy/internal/embed"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
)

// Key identifies one trained model: a sha256 over the training inputs.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// trainSeed is the training-RNG seed component of every key. Both trainers
// are deterministic with fixed internal seeds today, so this is a
// constant; if a trainer ever grows a seed parameter, it joins the key
// here.
const trainSeed = 0

const numShards = 16

type shard struct {
	mu sync.RWMutex
	m  map[Key]any
}

// Store is the content-addressed model cache. The zero value is not
// usable; construct with New.
type Store struct {
	shards [numShards]shard

	fmu    sync.Mutex
	flight map[Key]*call

	lookups, hits, misses atomic.Int64
}

// call is one in-flight training, shared by every waiter for its key.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Stats is a snapshot of the store's lookup tallies. Lookups = Hits +
// Misses; every miss is one training run (single-flighted waiters count
// as hits).
type Stats struct {
	Lookups, Hits, Misses int64
}

// HitRate is the fraction of lookups served without training.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// New returns an empty store.
func New() *Store {
	s := &Store{flight: map[Key]*call{}}
	for i := range s.shards {
		s.shards[i].m = map[Key]any{}
	}
	return s
}

// Stats returns a snapshot of the lookup tallies.
func (s *Store) Stats() Stats {
	return Stats{
		Lookups: s.lookups.Load(),
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
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
	v, err := s.get(ctx, EmbedKey(contexts, cfg),
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
	v, err := s.get(ctx, NamerecKey(sources),
		func(ctx context.Context) (any, error) { return train(ctx) })
	if err != nil {
		return nil, err
	}
	return v.(*namerec.Model), nil
}

// EmbedKey computes the content address of an embedding model: model
// kind, resolved configuration, training seed, and every context's
// identifiers with unambiguous length framing.
func EmbedKey(contexts [][]string, cfg *embed.Config) Key {
	c := cfg.Resolved()
	h := sha256.New()
	h.Write([]byte("decompstudy/modelstore embed\n"))
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

// NamerecKey computes the content address of a recovery model: model
// kind, training seed, and the raw corpus sources in order.
func NamerecKey(sources []string) Key {
	h := sha256.New()
	h.Write([]byte("decompstudy/modelstore namerec\n"))
	writeInts(h, trainSeed, int64(len(sources)))
	for _, src := range sources {
		writeStr(h, src)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

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

// get is the single-flighted lookup.
func (s *Store) get(ctx context.Context, key Key, build func(context.Context) (any, error)) (any, error) {
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

		cl.val, cl.err = s.buildMiss(ctx, key, build)
		s.fmu.Lock()
		delete(s.flight, key)
		s.fmu.Unlock()
		close(cl.done)
		return cl.val, cl.err
	}
}

// buildMiss trains for the winning caller. Only a successful result is
// published.
func (s *Store) buildMiss(ctx context.Context, key Key, build func(context.Context) (any, error)) (any, error) {
	s.misses.Add(1)
	obs.AddCountL(ctx, "modelstore.lookups", 1, obs.L("result", "miss"))
	v, err := build(ctx)
	if err != nil {
		return nil, err
	}
	s.publish(key, v)
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

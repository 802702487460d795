package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/cachestore"
	"github.com/ata-pattern/ataqc/internal/graph"
)

// TestCacheIgnoresLegacyPatternEntries: entries of the retired pattern
// (kind 2) and solver (kind 3) records that an older version left on disk
// are never read — the first compile over such a directory is fresh and
// counts no corruption — and they age out through the byte-budget LRU like
// any other unused entry.
func TestCacheIgnoresLegacyPatternEntries(t *testing.T) {
	// A one-byte budget keeps only the newest entry on disk, so every put
	// evicts everything older.
	store, err := cachestore.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.GridN(9)
	legacy := []cachestore.Key{
		{Arch: a.Fingerprint(), Kind: 2, Hash: [32]byte{1}},
		{Arch: a.Fingerprint(), Kind: 3, Hash: [32]byte{2}},
	}
	for _, k := range legacy {
		if err := store.Put(k, []byte("legacy record")); err != nil {
			t.Fatal(err)
		}
	}

	cache := NewCache(cachestore.NewTiered(store, 0))
	defer cache.Close()
	if cache.Store() == nil {
		t.Fatal("Store() returned nil for a disk-backed cache")
	}
	p := graph.GnpConnected(9, 0.5, rand.New(rand.NewSource(1)))
	res, err := CompileCached(context.Background(), a, p, Options{Workers: 1}, cache)
	if err != nil {
		t.Fatalf("compile over legacy entries: %v", err)
	}
	if res.Stats.CacheTier != "" {
		t.Fatalf("first compile reported tier %q, want fresh", res.Stats.CacheTier)
	}
	if got := cache.Stats().Corrupt; got != 0 {
		t.Fatalf("corrupt counter = %d, want 0 (legacy entries must not be read)", got)
	}
	for _, k := range legacy {
		if _, ok := store.Get(k); ok {
			t.Fatalf("legacy kind-%d entry survived the byte budget", k.Kind)
		}
	}
	if got := store.Stats().Evictions; got < int64(len(legacy)) {
		t.Fatalf("evictions = %d, want >= %d", got, len(legacy))
	}
}

package main

import "testing"

func TestKeySpaceIsDistinct(t *testing.T) {
	keys := keySpace()
	if len(keys) != 3456 {
		t.Fatalf("key space has %d queries, want 12 shapes x 8 x 9 x 4 = 3456", len(keys))
	}
	seen := map[string]bool{}
	for _, q := range keys {
		if seen[q.url()] {
			t.Fatalf("duplicate query %s", q.url())
		}
		seen[q.url()] = true
	}
}

func TestMixIsDeterministicPerSeed(t *testing.T) {
	keys := keySpace()
	a, b, c := newMix(keys, 7, zipfS), newMix(keys, 7, zipfS), newMix(keys, 8, zipfS)
	same, diff := true, 0
	for k := uint64(1); k <= 1000; k++ {
		same = same && a.at(k) == b.at(k)
		if a.at(k) != c.at(k) {
			diff++
		}
	}
	if !same {
		t.Error("two mixes with one seed drew different queries")
	}
	if diff < 500 {
		t.Errorf("mixes with seeds 7 and 8 agree on %d of 1000 draws", 1000-diff)
	}
}

func TestMixCoversItsKeySpaceWithZipfSkew(t *testing.T) {
	keys := keySpace()
	m := newMix(keys, 1, zipfS)
	counts := make([]int, len(keys))
	const draws = 1_000_000
	for k := uint64(1); k <= draws; k++ {
		counts[m.at(k)]++
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("query %s never drawn in %d draws", keys[i].url(), draws)
		}
	}
	// The most popular query has weight 1/H(3456) ≈ 11.5% at s=1.
	top := counts[m.rank[0]]
	if share := float64(top) / draws; share < 0.10 || share > 0.13 {
		t.Errorf("top query drew %.3f of requests, want ~0.115", share)
	}
}

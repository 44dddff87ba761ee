package serve

import (
	"fmt"
	"runtime"

	"dcnr/internal/observe"
)

// DefaultCacheEntries is the result-cache capacity Validate fills in
// when Config.CacheEntries is zero.
const DefaultCacheEntries = 1024

// MaxShards bounds the partition count: every query fans out to every
// shard, so a shard count wildly beyond any machine's core count only
// adds fan-out overhead.
const MaxShards = 256

// Config configures the SEV query daemon. The zero value is runnable:
// Validate normalizes it to one shard per CPU, the default cache size,
// and an OS-assigned port, following the sim.IntraConfig pattern —
// normalization happens in one place, NewDaemon calls it, and an
// explicitly invalid field is rejected rather than silently clamped.
type Config struct {
	// Addr is the listen address ("host:port"); empty means ":0", an
	// OS-assigned port.
	Addr string
	// Shards is the number of store partitions queries fan out across;
	// 0 means one per CPU (GOMAXPROCS). Negative or beyond MaxShards is
	// rejected.
	Shards int
	// CacheEntries bounds the LRU result cache (responses keyed by
	// normalized query + dataset generation); 0 means
	// DefaultCacheEntries. Negative is rejected.
	CacheEntries int
	// Obs carries the optional observability bundle: Metrics instruments
	// the query engine and the serve layer, Health/Journal/Timeline back
	// the introspection endpoints. Zero means uninstrumented.
	Obs observe.Observe
}

// Validate normalizes cfg in place and reports the first invalid field.
// It is idempotent: validating a validated config changes nothing.
func (c *Config) Validate() error {
	if c.Addr == "" {
		c.Addr = ":0"
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 0 {
		return fmt.Errorf("serve: negative shard count %d", c.Shards)
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("serve: shard count %d exceeds %d", c.Shards, MaxShards)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.CacheEntries < 0 {
		return fmt.Errorf("serve: negative cache capacity %d", c.CacheEntries)
	}
	return nil
}

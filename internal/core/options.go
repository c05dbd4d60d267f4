package core

import (
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/server"
	"cloudrepl/internal/shard"
)

// Option configures a replicated database handle at Open or OpenSharded.
// Options compose left to right; a later option overrides an earlier one for
// the same knob. Every option but the three sharded-mode ones means the same
// thing on either handle shape.
type Option func(*config)

// config is the accumulated Open configuration. It stays private so the
// option set can grow without breaking callers.
type config struct {
	database string
	routing  shard.Routing
	pool     pool.Config
	tracer   *obs.Tracer

	// Sharded-mode knobs, consumed only by OpenSharded.
	shards             int
	keyspace           shard.Keyspace
	partitionedPreload func(owns func(table string, key int64) bool) func(srv *server.DBServer) error
}

// newConfig folds opts and fills the defaults: a 64/64 pool, one cell.
func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.pool.MaxActive == 0 {
		cfg.pool = pool.Config{MaxActive: 64, MaxIdle: 64}
	}
	return cfg
}

// WithDatabase sets the default database for every connection.
func WithDatabase(name string) Option {
	return func(c *config) { c.database = name }
}

// WithClientPlace sets where the application tier runs; every statement pays
// the network round trip from there to its backend.
func WithClientPlace(p cloud.Placement) Option {
	return func(c *config) { c.routing.ClientPlace = p }
}

// WithBalancer sets the read balancer's constructor (nil = round-robin). A
// constructor because balancers keep per-slave state: a sharded handle
// builds one per cell, a handle from Open calls it once.
func WithBalancer(mk func() proxy.Balancer) Option {
	return func(c *config) { c.routing.Balancer = mk }
}

// WithConsistency selects the read-consistency tier every connection gets:
// proxy.Eventual (any slave, the default), proxy.Bounded (slaves within a
// staleness bound, see WithMaxStaleEvents), proxy.Session (read-your-writes
// via epoch-aware tokens), or proxy.Strong (master-only reads). The tier
// composes with the balancer: it filters which backends qualify, the
// balancer picks among them. In sharded mode the tier applies per cell, with
// session tokens tracked per cell.
func WithConsistency(tier proxy.Consistency) Option {
	return func(c *config) { c.routing.Consistency = tier }
}

// WithMaxStaleEvents sets the Bounded tier's staleness bound in binlog
// events (0 = proxy.DefaultMaxEventsBehind). Only meaningful with
// WithConsistency(proxy.Bounded).
func WithMaxStaleEvents(n uint64) Option {
	return func(c *config) { c.routing.MaxStaleEvents = n }
}

// WithRetryPolicy configures client-side robustness (retry with backoff,
// slave eviction, statement timeouts, automatic master failover). Without it
// the handle makes a single attempt per statement; use
// proxy.DefaultRetryPolicy() for the chaos-hardened defaults. When the
// policy's FailoverOnMasterDown is set, each cell's proxy promotes a slave of
// its own cluster when it finds the master dead.
func WithRetryPolicy(rp proxy.RetryPolicy) Option {
	return func(c *config) { c.routing.Retry = rp }
}

// WithPool sizes the connection pool (default 64/64, wait forever).
func WithPool(cfg pool.Config) Option {
	return func(c *config) { c.pool = cfg }
}

// WithTracer wires tr through the whole data path — client handle, pool,
// proxy, cluster servers and replication threads — so every statement's
// causal chain is recorded as one trace. Tracing is off (and free) without
// this option.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// WithShards sets the initial cell count for OpenSharded (default 1).
// Ignored by Open.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithKeyspace declares which tables are sharded on which integer key
// column (and which are replicated globally); see shard.Keyspace. Ignored by
// Open.
func WithKeyspace(ks shard.Keyspace) Option {
	return func(c *config) { c.keyspace = ks }
}

// WithPartitionedPreload installs a preload builder for sharded cells:
// each cell's master loads exactly the rows the ownership predicate grants it.
// cloudstone.PreloadOwned composes directly with this. Ignored by Open.
func WithPartitionedPreload(f func(owns func(table string, key int64) bool) func(srv *server.DBServer) error) Option {
	return func(c *config) { c.partitionedPreload = f }
}

package gateway

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

// Config is the gateway's declarative surface: which engine profile
// serves, at what scale, and the tenant directory. It doubles as the
// JSON file format gatewayd loads with -config.
type Config struct {
	// System selects the engine profile ("A", "B" or "C").
	System string `json:"system"`
	// Scale is the data scale factor relative to the paper's databases.
	Scale float64 `json:"scale"`
	// Seed drives data generation and pool sampling.
	Seed int64 `json:"seed"`
	// Pool is the per-family sampled query pool size.
	Pool int `json:"pool"`

	// GlobalInflight caps queries executing on the engine at once across
	// all tenants (the engine-protecting backstop behind the per-tenant
	// concurrency caps).
	GlobalInflight int `json:"global_inflight"`
	// MaxBodyBytes bounds the request body; oversized bodies are
	// rejected with 413 before any parsing.
	MaxBodyBytes int64 `json:"max_body_bytes"`
	// TimeoutSeconds is the per-query simulated timeout.
	TimeoutSeconds float64 `json:"timeout_seconds"`
	// Tuning enables the per-tenant goal tuner: a sliding-window goal
	// violation on any tenant triggers a recommender run and an
	// incremental engine transition while traffic keeps flowing.
	Tuning bool `json:"tuning"`

	// Shards > 1 serves queries through a partition-parallel shard
	// cluster over the engine (0 or 1 = unsharded direct execution).
	Shards int `json:"shards,omitempty"`
	// ShardMode picks the partitioning scheme: "hash" (default) or
	// "range".
	ShardMode string `json:"shard_mode,omitempty"`
	// ShardPool is the worker fan-out per partition-parallel query.
	ShardPool int `json:"shard_pool,omitempty"`

	// Autoscale starts the elastic autoscaler: sliding windows of
	// completed queries are graded against AutoscaleGoal and fed to the
	// scaling rules, which may reshard the cluster or resize its pool.
	// Implies a cluster even when Shards <= 1 (it starts at one shard).
	Autoscale bool `json:"autoscale,omitempty"`
	// AutoscaleDryRun counts every proposal without mutating anything.
	AutoscaleDryRun bool `json:"autoscale_dry_run,omitempty"`
	// AutoscaleWindow is how many completed queries form one metrics
	// window.
	AutoscaleWindow int `json:"autoscale_window,omitempty"`
	// AutoscaleTarget is the mean-latency target (simulated seconds) the
	// scaling rules in shard.Propose aim for.
	AutoscaleTarget float64 `json:"autoscale_target,omitempty"`
	// AutoscaleCooldown is the updater's hysteresis window: after a scale
	// action, proposals within this many windows are held (counted as
	// "cooldown") instead of applied, damping oscillation while the
	// cluster settles. Zero disables the cooldown.
	AutoscaleCooldown int `json:"autoscale_cooldown,omitempty"`
	// AutoscaleGoal is the goal curve windows are graded against, in
	// core.ParseGoal format; empty means the paper's Example 2 goal.
	AutoscaleGoal string `json:"autoscale_goal,omitempty"`
	// MinShards/MaxShards/MinPool/MaxPool bound the autoscaler; a
	// proposal outside the bounds is refused (counted), never clamped.
	// Zero max means unbounded, zero min means 1.
	MinShards int `json:"min_shards,omitempty"`
	MaxShards int `json:"max_shards,omitempty"`
	MinPool   int `json:"min_pool,omitempty"`
	MaxPool   int `json:"max_pool,omitempty"`

	Tenants []TenantConfig `json:"tenants"`
}

// sharded reports whether the gateway serves through a shard cluster.
func (c *Config) sharded() bool { return c.Shards > 1 || c.Autoscale }

// TenantConfig declares one tenant: identity, capabilities and QoS goal.
type TenantConfig struct {
	Name   string `json:"name"`
	APIKey string `json:"api_key"`

	// Families lists the query families this tenant may label requests
	// with and fetch pools for. Every tenant of one gateway must map to
	// the same database (one engine serves one database).
	Families []string `json:"families"`
	// Relations, when non-empty, is a relation allowlist: every table a
	// query touches (FROM clause and IN-subqueries) must be listed, or
	// the request is rejected with 403 capability-violation.
	Relations []string `json:"relations,omitempty"`

	// MaxQueue bounds this tenant's admitted queries waiting to run; an
	// arrival past it is rejected with 429 + Retry-After.
	MaxQueue int `json:"max_queue"`
	// MaxConcurrency is the number of this tenant's queries executing at
	// once (the capacity of its run semaphore).
	MaxConcurrency int `json:"max_concurrency"`
	// MaxRows caps rows echoed in responses (the full row count is
	// always reported).
	MaxRows int `json:"max_rows"`

	// Goal is the tenant's QoS curve G(x) in core.ParseGoal format
	// ("60:0.50,400:0.95"); empty means the paper's Example 2 goal.
	Goal string `json:"goal,omitempty"`
	// Window is the sliding observation window (completed queries) the
	// tuner judges the goal over.
	Window int `json:"window"`
}

// setDefaults fills the zero values.
func (c *Config) setDefaults() {
	if c.System == "" {
		c.System = "B"
	}
	if c.Scale == 0 {
		c.Scale = 0.0002
	}
	if c.Pool == 0 {
		c.Pool = 30
	}
	if c.GlobalInflight == 0 {
		c.GlobalInflight = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 10
	}
	if c.TimeoutSeconds == 0 {
		c.TimeoutSeconds = core.DefaultTimeout
	}
	if c.sharded() {
		if c.ShardMode == "" {
			c.ShardMode = "hash"
		}
		if c.ShardPool == 0 {
			c.ShardPool = 4
		}
	}
	if c.Autoscale {
		if c.AutoscaleWindow == 0 {
			c.AutoscaleWindow = 32
		}
		if c.AutoscaleTarget == 0 {
			c.AutoscaleTarget = 60
		}
		if c.MaxShards == 0 {
			c.MaxShards = 8
		}
		if c.MaxPool == 0 {
			c.MaxPool = 16
		}
	}
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.MaxQueue == 0 {
			t.MaxQueue = 16
		}
		if t.MaxConcurrency == 0 {
			t.MaxConcurrency = 2
		}
		if t.MaxRows == 0 {
			t.MaxRows = 8
		}
		if t.Window == 0 {
			t.Window = 32
		}
	}
}

// Validate checks the config and returns the database every tenant's
// families live on.
func (c *Config) Validate() (string, error) {
	switch c.System {
	case "A", "B", "C":
	default:
		return "", fmt.Errorf("gateway: unknown system %q", c.System)
	}
	if len(c.Tenants) == 0 {
		return "", fmt.Errorf("gateway: no tenants configured")
	}
	if c.GlobalInflight < 1 {
		return "", fmt.Errorf("gateway: global_inflight must be positive, got %d", c.GlobalInflight)
	}
	if c.Scale < 0 {
		return "", fmt.Errorf("gateway: scale must not be negative, got %v", c.Scale)
	}
	if c.Pool < 0 {
		return "", fmt.Errorf("gateway: pool must not be negative, got %d", c.Pool)
	}
	if c.TimeoutSeconds < 0 {
		return "", fmt.Errorf("gateway: timeout_seconds must not be negative, got %v", c.TimeoutSeconds)
	}
	// http.MaxBytesReader reads a negative limit as 0: every body refused.
	if c.MaxBodyBytes < 0 {
		return "", fmt.Errorf("gateway: max_body_bytes must not be negative, got %d", c.MaxBodyBytes)
	}
	if c.Shards < 0 {
		return "", fmt.Errorf("gateway: shards must be non-negative, got %d", c.Shards)
	}
	switch c.ShardMode {
	case "", "hash", "range":
	default:
		return "", fmt.Errorf("gateway: unknown shard_mode %q (want hash or range)", c.ShardMode)
	}
	if c.sharded() && c.ShardPool < 1 {
		return "", fmt.Errorf("gateway: shard_pool must be positive, got %d", c.ShardPool)
	}
	if c.Autoscale {
		if c.AutoscaleWindow < 1 {
			return "", fmt.Errorf("gateway: autoscale_window must be positive, got %d", c.AutoscaleWindow)
		}
		if c.AutoscaleTarget <= 0 {
			return "", fmt.Errorf("gateway: autoscale_target must be positive, got %v", c.AutoscaleTarget)
		}
		if c.AutoscaleCooldown < 0 {
			return "", fmt.Errorf("gateway: autoscale_cooldown must not be negative, got %d", c.AutoscaleCooldown)
		}
		if c.MaxShards > 0 && c.MinShards > c.MaxShards {
			return "", fmt.Errorf("gateway: min_shards %d exceeds max_shards %d", c.MinShards, c.MaxShards)
		}
		if c.MaxPool > 0 && c.MinPool > c.MaxPool {
			return "", fmt.Errorf("gateway: min_pool %d exceeds max_pool %d", c.MinPool, c.MaxPool)
		}
		if c.AutoscaleGoal != "" {
			if _, err := core.ParseGoal(c.AutoscaleGoal); err != nil {
				return "", fmt.Errorf("gateway: autoscale_goal: %w", err)
			}
		}
	}
	db := ""
	names := make(map[string]bool, len(c.Tenants))
	keys := make(map[string]bool, len(c.Tenants))
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Name == "" {
			return "", fmt.Errorf("gateway: tenant %d has no name", i)
		}
		if names[t.Name] {
			return "", fmt.Errorf("gateway: duplicate tenant name %q", t.Name)
		}
		names[t.Name] = true
		if t.APIKey == "" {
			return "", fmt.Errorf("gateway: tenant %q has no api_key", t.Name)
		}
		if keys[t.APIKey] {
			return "", fmt.Errorf("gateway: tenant %q reuses another tenant's api_key", t.Name)
		}
		keys[t.APIKey] = true
		if len(t.Families) == 0 {
			return "", fmt.Errorf("gateway: tenant %q has no families", t.Name)
		}
		for _, f := range t.Families {
			d, err := bench.DBOfFamily(f)
			if err != nil {
				return "", fmt.Errorf("gateway: tenant %q: %w", t.Name, err)
			}
			if db == "" {
				db = d
			} else if db != d {
				return "", fmt.Errorf("gateway: tenant %q family %s lives on %s but the gateway serves %s; one engine serves one database", t.Name, f, d, db)
			}
		}
		if t.MaxQueue < 0 || t.MaxConcurrency < 1 || t.MaxRows < 0 || t.Window < 1 {
			return "", fmt.Errorf("gateway: tenant %q has nonsensical caps (max_queue %d, max_concurrency %d, max_rows %d, window %d)",
				t.Name, t.MaxQueue, t.MaxConcurrency, t.MaxRows, t.Window)
		}
		if t.Goal != "" {
			if _, err := core.ParseGoal(t.Goal); err != nil {
				return "", fmt.Errorf("gateway: tenant %q goal: %w", t.Name, err)
			}
		}
	}
	return db, nil
}

// goalOf resolves a goal spec in core.ParseGoal format; empty means the
// paper's Example 2 goal.
//
// Goal resolution takes the spec by value: it reads the config, never
// rewrites it (per-tenant tuning goes through the config swap).
func goalOf(spec string) core.Goal {
	if spec == "" {
		return core.Example2Goal()
	}
	g, err := core.ParseGoal(spec)
	if err != nil {
		// Validate rejected this earlier; an unvalidated config falls
		// back to the paper's goal rather than panicking mid-serve.
		return core.Example2Goal()
	}
	return g
}

// allowSet lowers the relation allowlist into a set (nil = allow all).
func (t *TenantConfig) allowSet() map[string]bool {
	if len(t.Relations) == 0 {
		return nil
	}
	out := make(map[string]bool, len(t.Relations))
	for _, r := range t.Relations {
		out[strings.ToLower(r)] = true
	}
	return out
}

// familySet lowers the family list into a set.
func (t *TenantConfig) familySet() map[string]bool {
	out := make(map[string]bool, len(t.Families))
	for _, f := range t.Families {
		out[f] = true
	}
	return out
}

// Normalize applies defaults and validation, as LoadConfig does: a
// caller that builds or edits a Config in code calls it before use.
func (c *Config) Normalize() error {
	c.setDefaults()
	_, err := c.Validate()
	return err
}

// LoadConfig reads and validates a JSON config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("gateway: %s: %w", path, err)
	}
	if err := c.Normalize(); err != nil {
		return Config{}, err
	}
	return c, nil
}

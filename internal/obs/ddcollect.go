package obs

// DDCollector bridges the dd engine into the registry: an observer
// that feeds per-operation latency histograms, and gauge recording for
// Stats snapshots. The web server records an aggregate snapshot over
// all live sessions at scrape time; the CLI tools record the final
// snapshot of a run before dumping the registry — both read the same
// family names, so bench trajectories and server dashboards line up.

import (
	"time"

	"quantumdd/internal/dd"
)

// DDCollector owns the dd_* metric series of one registry.
type DDCollector struct {
	opDur   [dd.NumOps]*Histogram
	gcPause *Histogram

	nodesLive   *Gauge
	nodesFree   *Gauge
	hitRatio    *Gauge
	uniqueLoadV *Gauge
	uniqueLoadM *Gauge

	nodesCreated   *Gauge
	nodesRecycled  *Gauge
	nodesFreed     *Gauge
	utCollisions   *Gauge
	gcRuns         *Gauge
	gcPauseSeconds *Gauge

	// Per compute table: lookups, hits, stores, evictions.
	tables [dd.NumTables][4]*Gauge

	gateCacheHits *Gauge
	applyMSkips   *Gauge
	mmOpsKernel   *Gauge
	mmOpsGeneric  *Gauge

	complexValues *Gauge
}

// NewDDCollector registers (or re-binds) the dd metric families on r.
func NewDDCollector(r *Registry) *DDCollector {
	c := &DDCollector{}
	for op := dd.Op(0); op < dd.NumOps; op++ {
		c.opDur[op] = r.Histogram("dd_op_duration_seconds",
			"Latency of top-level decision-diagram operations.",
			LatencyBuckets, L("op", op.String()))
	}
	c.gcPause = r.Histogram("dd_gc_pause_seconds",
		"Duration of decision-diagram garbage collections.", LatencyBuckets)
	c.nodesLive = r.Gauge("dd_nodes_live",
		"Nodes currently held in the unique tables, summed over live packages.")
	c.nodesFree = r.Gauge("dd_nodes_free",
		"Nodes parked on the arena free lists, awaiting recycling.")
	c.hitRatio = r.Gauge("dd_compute_table_hit_ratio",
		"Fraction of compute-table lookups served from cache.")
	c.uniqueLoadV = r.Gauge("dd_unique_table_load",
		"Unique-table load factor (entries per bucket).", L("kind", "vector"))
	c.uniqueLoadM = r.Gauge("dd_unique_table_load",
		"Unique-table load factor (entries per bucket).", L("kind", "matrix"))
	c.nodesCreated = r.Gauge("dd_nodes_created",
		"Unique-table misses (nodes created) over live packages.")
	c.nodesRecycled = r.Gauge("dd_nodes_recycled",
		"Node allocations served from the free lists over live packages.")
	c.nodesFreed = r.Gauge("dd_nodes_freed",
		"Nodes swept by garbage collection over live packages.")
	c.utCollisions = r.Gauge("dd_unique_table_collisions",
		"Unique-table chain entries probed past the bucket head.")
	// Gauges, not counters: each sums the live packages and falls
	// when one closes.
	for id := dd.Table(0); id < dd.NumTables; id++ {
		l := L("table", id.String())
		c.tables[id] = [4]*Gauge{
			r.Gauge("dd_compute_table_lookups", "Compute-table lookups over live packages.", l),
			r.Gauge("dd_compute_table_hits", "Compute-table hits over live packages.", l),
			r.Gauge("dd_compute_table_stores", "Compute-table stores over live packages.", l),
			r.Gauge("dd_compute_table_evictions", "Compute-table stores that displaced a live entry.", l),
		}
	}
	c.gcRuns = r.Gauge("dd_gc_runs",
		"Garbage collections run over live packages.")
	c.gcPauseSeconds = r.Gauge("dd_gc_pause_seconds_total",
		"Cumulative wall-clock seconds spent in garbage collection.")
	c.gateCacheHits = r.Gauge("dd_gate_cache_hits",
		"MakeGateDD requests served from the per-package gate-DD cache.")
	c.applyMSkips = r.Gauge("dd_apply_m_identity_skips",
		"Identity sub-blocks short-circuited by the matrix-apply descent.")
	c.mmOpsKernel = r.Gauge("dd_mm_ops",
		"Matrix-matrix gate applications by path.", L("path", "kernel"))
	c.mmOpsGeneric = r.Gauge("dd_mm_ops",
		"Matrix-matrix gate applications by path.", L("path", "generic"))
	c.complexValues = r.Gauge("dd_complex_table_values",
		"Canonical reals held in the complex tables, summed over live packages.")
	return c
}

// ObserveOp feeds the latency histograms; DDCollector is a
// dd.Observer safe for concurrent use by several packages.
func (c *DDCollector) ObserveOp(op dd.Op, d time.Duration) {
	if op >= dd.NumOps {
		return
	}
	c.opDur[op].ObserveSeconds(int64(d))
	if op == dd.OpGC {
		c.gcPause.ObserveSeconds(int64(d))
	}
}

// Record sets the snapshot gauges from one Stats value. The snapshot
// may be a single package's stats or an aggregate built with
// dd.Stats.Add.
func (c *DDCollector) Record(st dd.Stats) {
	c.nodesLive.Set(float64(st.LiveNodes))
	c.nodesFree.Set(float64(st.FreeNodesV + st.FreeNodesM))
	if st.CacheLookups > 0 {
		c.hitRatio.Set(float64(st.CacheHits) / float64(st.CacheLookups))
	} else {
		c.hitRatio.Set(0)
	}
	c.uniqueLoadV.Set(st.UniqueLoadV)
	c.uniqueLoadM.Set(st.UniqueLoadM)
	c.nodesCreated.Set(float64(st.NodesCreatedV + st.NodesCreatedM))
	c.nodesRecycled.Set(float64(st.NodesRecycledV + st.NodesRecycledM))
	c.nodesFreed.Set(float64(st.NodesFreed))
	c.utCollisions.Set(float64(st.UTCollisions))
	c.gcRuns.Set(float64(st.GCRuns))
	c.gcPauseSeconds.Set(float64(st.GCPauseNS) / 1e9)
	for id, t := range st.Tables {
		for i, v := range [4]uint64{t.Lookups, t.Hits, t.Stores, t.Evictions} {
			c.tables[id][i].Set(float64(v))
		}
	}
	c.gateCacheHits.Set(float64(st.GateDDCacheHits))
	c.applyMSkips.Set(float64(st.ApplyMIdentitySkips))
	c.mmOpsKernel.Set(float64(st.ApplyMOps))
	c.mmOpsGeneric.Set(float64(st.MultMMOps))
	c.complexValues.Set(float64(st.ComplexValues))
}

//! Server-side counters and the text `/metrics` rendering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mfcsl_core::mfcsl::EngineStats;
use mfcsl_pool::PoolStats;

/// Snapshot-persistence counters, read out of the session store for one
/// `/metrics` rendering.
#[derive(Debug, Default, Clone, Copy)]
pub struct SnapshotCounters {
    /// Snapshots written (on eviction and on graceful drain).
    pub saved: u64,
    /// Snapshots restored into warm sessions at startup.
    pub loaded: u64,
    /// Snapshot files skipped: corrupt, truncated, wrong schema version,
    /// or referencing a model the registry no longer has.
    pub rejected: u64,
}

/// Upper edges of the request-latency histogram buckets, in microseconds
/// (roughly half-decade spacing); the last bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    100, 316, 1_000, 3_160, 10_000, 31_600, 100_000, 316_000, 1_000_000, 3_160_000,
];

/// Daemon-wide counters. All relaxed atomics: the numbers are monotonic
/// telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// TCP connections accepted. With keep-alive clients this grows much
    /// slower than the request counters — the gap is the reuse the reactor
    /// buys.
    pub connections: AtomicU64,
    /// Requests admitted into the work queue (one per parsed request).
    pub accepted: AtomicU64,
    /// Connections turned away with `429` because the queue was full.
    pub rejected: AtomicU64,
    /// Requests that hit their deadline and got `504`.
    pub timed_out: AtomicU64,
    /// Check requests answered `200`.
    pub completed: AtomicU64,
    /// Requests answered `4xx` (bad body, unknown model/path, …).
    pub client_errors: AtomicU64,
    /// Requests answered `500` because the engine itself failed (numerical
    /// breakdown, exhausted recovery ladder) — never a worker death.
    pub engine_errors: AtomicU64,
    /// Handler panics caught by the worker loop (each costs one
    /// connection, never a worker).
    pub panics: AtomicU64,
    /// Check requests that found their session warm.
    pub warm_hits: AtomicU64,
    /// Check requests that had to build a cold session.
    pub cold_starts: AtomicU64,
    /// `POST /v1/prewarm` requests answered `200`.
    pub prewarms: AtomicU64,
    /// `"mode": "simulate"` check requests answered `200`.
    pub simulate_requests: AtomicU64,
    /// SSA replications backing completed simulate answers (batch sizes
    /// after sequential growth; memoized batches count once, at creation).
    pub simulate_replications: AtomicU64,
    /// Latency histogram counts, one per entry of [`LATENCY_BUCKETS_US`]
    /// plus a final overflow bucket.
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    /// Sum of observed latencies, in microseconds.
    latency_sum_us: AtomicU64,
    /// Number of observed latencies.
    latency_count: AtomicU64,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Records one queue-to-response latency.
    pub fn observe_latency(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&edge| us <= edge)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the `/metrics` document: server counters, the latency
    /// histogram (cumulative, Prometheus style), merged engine counters
    /// over all warm sessions, and pool occupancy.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn render(
        &self,
        engine: &EngineStats,
        pool: &PoolStats,
        sessions: usize,
        sessions_evicted: u64,
        sessions_quarantined: u64,
        queue_depth: usize,
        queue_capacity: usize,
        snapshots: &SnapshotCounters,
    ) -> String {
        use std::fmt::Write as _;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        fn line(out: &mut String, name: &str, value: String) {
            let _ = writeln!(out, "{name} {value}");
        }
        line(
            &mut out,
            "mfcsld_connections_total",
            g(&self.connections).to_string(),
        );
        line(
            &mut out,
            "mfcsld_requests_accepted_total",
            g(&self.accepted).to_string(),
        );
        line(
            &mut out,
            "mfcsld_requests_rejected_total",
            g(&self.rejected).to_string(),
        );
        line(
            &mut out,
            "mfcsld_requests_timed_out_total",
            g(&self.timed_out).to_string(),
        );
        line(
            &mut out,
            "mfcsld_requests_completed_total",
            g(&self.completed).to_string(),
        );
        line(
            &mut out,
            "mfcsld_requests_client_errors_total",
            g(&self.client_errors).to_string(),
        );
        line(
            &mut out,
            "mfcsld_requests_engine_errors_total",
            g(&self.engine_errors).to_string(),
        );
        line(
            &mut out,
            "mfcsld_worker_panics_total",
            g(&self.panics).to_string(),
        );
        line(&mut out, "mfcsld_sessions_warm", sessions.to_string());
        line(
            &mut out,
            "mfcsld_sessions_evicted_total",
            sessions_evicted.to_string(),
        );
        line(
            &mut out,
            "mfcsld_sessions_quarantined_total",
            sessions_quarantined.to_string(),
        );
        line(
            &mut out,
            "mfcsld_session_warm_hits_total",
            g(&self.warm_hits).to_string(),
        );
        line(
            &mut out,
            "mfcsld_session_cold_starts_total",
            g(&self.cold_starts).to_string(),
        );
        line(
            &mut out,
            "mfcsld_prewarm_requests_total",
            g(&self.prewarms).to_string(),
        );
        line(
            &mut out,
            "mfcsld_simulate_requests_total",
            g(&self.simulate_requests).to_string(),
        );
        line(
            &mut out,
            "mfcsld_simulate_replications_total",
            g(&self.simulate_replications).to_string(),
        );
        line(
            &mut out,
            "mfcsld_snapshot_saved_total",
            snapshots.saved.to_string(),
        );
        line(
            &mut out,
            "mfcsld_snapshot_loaded_total",
            snapshots.loaded.to_string(),
        );
        line(
            &mut out,
            "mfcsld_snapshot_rejected_total",
            snapshots.rejected.to_string(),
        );
        line(&mut out, "mfcsld_queue_depth", queue_depth.to_string());
        line(
            &mut out,
            "mfcsld_queue_capacity",
            queue_capacity.to_string(),
        );
        let mut cumulative = 0;
        for (i, edge) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += g(&self.buckets[i]);
            let _ = writeln!(
                out,
                "mfcsld_request_latency_us_bucket{{le=\"{edge}\"}} {cumulative}"
            );
        }
        cumulative += g(&self.buckets[LATENCY_BUCKETS_US.len()]);
        let _ = writeln!(
            out,
            "mfcsld_request_latency_us_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        line(
            &mut out,
            "mfcsld_request_latency_us_sum",
            g(&self.latency_sum_us).to_string(),
        );
        line(
            &mut out,
            "mfcsld_request_latency_us_count",
            g(&self.latency_count).to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_trajectory_solves_total",
            engine.trajectory_solves.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_trajectory_extensions_total",
            engine.trajectory_extensions.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_trajectory_reuses_total",
            engine.trajectory_reuses.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_trajectory_restores_total",
            engine.trajectory_restores.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_regime_solves_total",
            engine.regime_solves.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_regime_reuses_total",
            engine.regime_reuses.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_recoveries_total",
            engine.recoveries.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_stiff_fallbacks_total",
            engine.stiff_fallbacks.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_refined_verdicts_total",
            engine.refined_verdicts.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_refine_rounds_total",
            engine.refine_rounds.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_prewarm_lanes_total",
            engine.batch_prewarmed.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_sat_set_hits_total",
            engine.cache.set_hits.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_sat_set_misses_total",
            engine.cache.set_misses.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_curve_hits_total",
            engine.cache.curve_hits.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_curve_misses_total",
            engine.cache.curve_misses.to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_rhs_evals_total",
            engine.total_rhs_evals().to_string(),
        );
        line(
            &mut out,
            "mfcsld_engine_ode_solves_total",
            engine.solves.len().to_string(),
        );
        line(&mut out, "mfcsld_pool_threads", pool.threads.to_string());
        line(
            &mut out,
            "mfcsld_pool_tasks_total",
            pool.total_tasks.to_string(),
        );
        line(
            &mut out,
            "mfcsld_pool_utilization",
            format!("{:.6}", pool.utilization),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_render() {
        let m = ServerMetrics::new();
        m.observe_latency(Duration::from_micros(50)); // bucket le=100
        m.observe_latency(Duration::from_micros(100)); // still le=100 (inclusive)
        m.observe_latency(Duration::from_micros(2_000)); // le=3160
        m.observe_latency(Duration::from_secs(60)); // overflow
        m.accepted.fetch_add(4, Ordering::Relaxed);
        m.completed.fetch_add(3, Ordering::Relaxed);
        let pool = mfcsl_pool::ThreadPool::new(1);
        let snapshots = SnapshotCounters {
            saved: 2,
            loaded: 1,
            rejected: 3,
        };
        let text = m.render(
            &EngineStats::default(),
            &pool.stats(),
            2,
            5,
            1,
            1,
            32,
            &snapshots,
        );
        assert!(text.contains("mfcsld_requests_accepted_total 4"), "{text}");
        assert!(text.contains("mfcsld_connections_total 0"), "{text}");
        assert!(text.contains("mfcsld_snapshot_saved_total 2"), "{text}");
        assert!(text.contains("mfcsld_snapshot_loaded_total 1"), "{text}");
        assert!(text.contains("mfcsld_snapshot_rejected_total 3"), "{text}");
        assert!(
            text.contains("mfcsld_engine_trajectory_restores_total 0"),
            "{text}"
        );
        assert!(
            text.contains("mfcsld_sessions_quarantined_total 1"),
            "{text}"
        );
        assert!(
            text.contains("mfcsld_requests_engine_errors_total 0"),
            "{text}"
        );
        assert!(text.contains("mfcsld_engine_recoveries_total 0"), "{text}");
        assert!(
            text.contains("mfcsld_engine_refined_verdicts_total 0"),
            "{text}"
        );
        assert!(text.contains("mfcsld_prewarm_requests_total 0"), "{text}");
        assert!(text.contains("mfcsld_simulate_requests_total 0"), "{text}");
        assert!(
            text.contains("mfcsld_simulate_replications_total 0"),
            "{text}"
        );
        assert!(
            text.contains("mfcsld_engine_prewarm_lanes_total 0"),
            "{text}"
        );
        assert!(
            text.contains("mfcsld_request_latency_us_bucket{le=\"100\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mfcsld_request_latency_us_bucket{le=\"3160\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("mfcsld_request_latency_us_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("mfcsld_request_latency_us_count 4"), "{text}");
        assert!(text.contains("mfcsld_sessions_warm 2"), "{text}");
        assert!(text.contains("mfcsld_sessions_evicted_total 5"), "{text}");
        assert!(text.contains("mfcsld_worker_panics_total 0"), "{text}");
        assert!(text.contains("mfcsld_queue_capacity 32"), "{text}");
        // Every line is `name value`.
        for l in text.lines() {
            assert_eq!(l.split(' ').count(), 2, "{l}");
        }
    }
}

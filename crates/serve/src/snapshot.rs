//! Warm-state persistence: a versioned on-disk snapshot of a session's
//! settled warm state, so a restarted daemon answers its first
//! request warm instead of re-solving.
//!
//! # What is persisted, and why that preserves bitwise verdicts
//!
//! A snapshot stores, per base-trajectory entry, every `f64` as its exact
//! bit pattern:
//!
//! * the **mean-field trajectory** (knot times, states, derivatives) — the
//!   root artifact every verdict derives from;
//! * the **stationary regime** reached from the entry's `m̄(0)`, when one
//!   was computed: the stationary occupancy and settle time. The frozen
//!   chain `Q(m̃)` is *not* stored — freezing is a pure evaluation of the
//!   model at `m̃`, so the restart rebuilds it bitwise;
//! * the **sat-cache**: the hash-consed formula tables (so re-interning
//!   the same formulas lands on the same ids) and every memoized
//!   satisfaction set and probability curve, including the until/nested
//!   evaluators' internal matrix trajectories.
//!
//! Restoring all three means the first request after a restart pays no
//! trajectory solve, no fixed-point search, and no curve development — it
//! is a genuine warm hit, and because every artifact round-trips bitwise,
//! its verdicts are bitwise identical to the pre-restart session's.
//! Faulted sessions are never snapshotted.
//!
//! # Wire layout (version 2, little-endian)
//!
//! ```text
//! magic    b"MFSS"
//! version  u32                          (schema version, currently 2)
//! model    u32 len + UTF-8 bytes
//! params   u32 count × (u32 len + UTF-8 bytes, u64 value bits)
//! fast     u8
//! entries  u32 count × {
//!   dim    u32
//!   m0     dim × u64                    (occupancy bit patterns)
//!   knots  u32
//!   ts     knots × u64                  (knot time bit patterns)
//!   ys     knots·dim × u64              (state bit patterns, knot-major)
//!   ds     knots·dim × u64              (derivative bit patterns)
//!   stats  5 × u64                      (accepted, rejected, rhs_evals,
//!                                        recoveries, stiff_fallbacks)
//!   regime u8 present + { dim × u64 m̃ bits, u8 has_settle, [u64 bits] }
//!   cache {
//!     state_keys u32 count × state-key record (tagged; children by index)
//!     path_keys  u32 count × path-key record
//!     sets       u32 count × { u32 id, u64 θ bits, piecewise-set record }
//!     curves     u32 count × { u32 id, u64 θ bits, curve record }
//!   }
//! }
//! digest   u64 cached_sets, u64 cached_curves
//! checksum u64                          (FNV-1a 64 of everything above)
//! ```
//!
//! Sub-records: a *piecewise-set record* is `u64 t_lo, u64 t_hi, u32
//! boundary count × u64, u32 n_states`, then `(boundaries+1) × n_states`
//! membership bytes. A *trajectory record* is `u32 dim, u32 knots, knots ×
//! u64 ts, knots·dim × u64 ys, knots·dim × u64 ds, 5 × u64 stats`. A
//! *curve record* is a tag byte (until / nested / sampled / point)
//! followed by that evaluator's constructor data. Comparison operators are
//! a byte (`<=` 0, `<` 1, `>` 2, `>=` 3).
//!
//! Readers validate magic, version, checksum, and structural bounds before
//! touching any payload, and every reconstructed artifact passes through
//! its validating constructor; a file failing any check is skipped and
//! counted (`mfcsld_snapshot_rejected_total`), never trusted partially.

use mfcsl_csl::nested::PiecewiseStateSet;
use mfcsl_csl::{Comparison, CurveExport, PathKeyExport, SatCacheExport, StateKeyExport};
use mfcsl_ode::{SolveStats, Trajectory};

use crate::store::SessionKey;

/// Snapshot magic bytes.
pub const MAGIC: [u8; 4] = *b"MFSS";

/// Current schema version. Bump on any layout change; readers reject other
/// versions instead of guessing. Version 1 stored trajectories only;
/// version 2 adds the stationary regime and the full sat-cache per entry.
pub const VERSION: u32 = 2;

/// Structural bounds a well-formed snapshot cannot exceed; anything larger
/// is a corrupt or hostile file and is rejected before allocation.
const MAX_STR: usize = 4096;
const MAX_PARAMS: usize = 4096;
const MAX_ENTRIES: usize = 65_536;
const MAX_DIM: usize = 65_536;
const MAX_KNOTS: usize = 16_777_216;
const MAX_KEYS: usize = 262_144;
const MAX_MEMOS: usize = 262_144;
const MAX_SEGMENTS: usize = 65_536;

/// A snapshot decoding failure (corrupt, truncated, or wrong version).
#[derive(Debug)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash. Deterministic across processes and platforms — this
/// is what makes it usable both as the snapshot checksum and as the
/// snapshot file name (`std`'s `RandomState` is seeded per process and
/// would orphan every snapshot on restart).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Canonical byte encoding of a [`SessionKey`], hashed into the snapshot
/// file name. Stable across restarts by construction: nothing here depends
/// on process state.
#[must_use]
pub fn key_bytes(key: &SessionKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&(key.model.len() as u32).to_le_bytes());
    out.extend_from_slice(key.model.as_bytes());
    out.extend_from_slice(&(key.params.len() as u32).to_le_bytes());
    for (name, bits) in &key.params {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&bits.to_le_bytes());
    }
    out.push(u8::from(key.fast));
    match key.fault {
        None => out.push(0),
        Some(plan) => {
            out.push(1);
            out.extend_from_slice(plan.mode.as_str().as_bytes());
            out.extend_from_slice(&plan.period.to_le_bytes());
            out.extend_from_slice(&plan.seed.to_le_bytes());
        }
    }
    // The statistical-lane arm is appended only when present, so every
    // pre-existing mean-field key hashes exactly as before — warm sessions
    // keep their snapshot file names across the upgrade (`key_hash_is_stable_across_processes` pins this).
    if let Some(sim) = key.sim {
        out.push(2);
        out.extend_from_slice(&sim.population.to_le_bytes());
        out.extend_from_slice(&sim.replications.to_le_bytes());
        out.extend_from_slice(&sim.seed.to_le_bytes());
    }
    out
}

/// The snapshot file name for a key: a stable hash, so one session maps to
/// one file and re-saving overwrites in place.
#[must_use]
pub fn file_name(key: &SessionKey) -> String {
    format!("sess-{:016x}.snap", fnv1a64(&key_bytes(key)))
}

/// The persisted stationary regime of one entry: the stationary occupancy
/// and settle time as exact bit patterns. The frozen chain rebuilds from
/// the model at restore time.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeSnapshot {
    /// Stationary occupancy `m̃`, exact bit patterns.
    pub distribution_bits: Vec<u64>,
    /// Settle time bit pattern, when the regime was stamped with one.
    pub settle_bits: Option<u64>,
}

/// One persisted warm entry: the base trajectory plus the derived warm
/// state (stationary regime, sat-cache) that a restart would otherwise
/// recompute.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Initial occupancy, exact bit patterns.
    pub m0_bits: Vec<u64>,
    /// Knot times, exact bit patterns.
    pub ts_bits: Vec<u64>,
    /// Knot states (knot-major, `dim` values per knot), exact bit patterns.
    pub ys_bits: Vec<u64>,
    /// Knot derivatives, same layout as `ys_bits`.
    pub ds_bits: Vec<u64>,
    /// Solve statistics: accepted, rejected, rhs_evals, recoveries,
    /// stiff_fallbacks.
    pub stats: [u64; 5],
    /// The stationary regime reached from this entry's `m0`, when one was
    /// computed.
    pub regime: Option<RegimeSnapshot>,
    /// The entry's sat-cache: interned formula tables plus memoized sets
    /// and curves.
    pub cache: SatCacheExport,
}

/// A decoded (or to-be-encoded) session snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Registry name of the model.
    pub model: String,
    /// Sorted `(name, value bits)` parameter overrides.
    pub params: Vec<(String, u64)>,
    /// Fast-tolerance preset flag.
    pub fast: bool,
    /// Warm entries.
    pub entries: Vec<SnapshotEntry>,
    /// Sat-cache digest at save time: interval sets cached.
    pub cached_sets: u64,
    /// Sat-cache digest at save time: probability curves cached.
    pub cached_curves: u64,
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_bools(out: &mut Vec<u8>, bools: &[bool]) {
    out.extend(bools.iter().map(|&b| u8::from(b)));
}

fn cmp_byte(cmp: Comparison) -> u8 {
    match cmp {
        Comparison::Le => 0,
        Comparison::Lt => 1,
        Comparison::Gt => 2,
        Comparison::Ge => 3,
    }
}

fn cmp_from_byte(byte: u8) -> Result<Comparison, SnapshotError> {
    Ok(match byte {
        0 => Comparison::Le,
        1 => Comparison::Lt,
        2 => Comparison::Gt,
        3 => Comparison::Ge,
        other => return Err(SnapshotError(format!("bad comparison byte {other}"))),
    })
}

fn encode_piecewise(out: &mut Vec<u8>, set: &PiecewiseStateSet) {
    push_f64(out, set.t_lo());
    push_f64(out, set.t_hi());
    push_u32(out, set.boundaries().len() as u32);
    for &b in set.boundaries() {
        push_f64(out, b);
    }
    push_u32(out, set.n_states() as u32);
    for segment in set.segment_sets() {
        push_bools(out, segment);
    }
}

fn encode_trajectory(out: &mut Vec<u8>, trajectory: &Trajectory) {
    let (dim, ts, ys, ds, stats) = trajectory.to_flat();
    push_u32(out, dim as u32);
    push_u32(out, ts.len() as u32);
    for &v in ts.iter().chain(&ys).chain(&ds) {
        push_f64(out, v);
    }
    for stat in [
        stats.accepted,
        stats.rejected,
        stats.rhs_evals,
        stats.recoveries,
        stats.stiff_fallbacks,
    ] {
        push_u64(out, stat as u64);
    }
}

fn encode_curve(out: &mut Vec<u8>, curve: &CurveExport) {
    match curve {
        CurveExport::Until {
            n,
            t1,
            sat1,
            sat2,
            phase_a,
            phase_b,
        } => {
            out.push(0);
            push_u32(out, *n as u32);
            push_f64(out, *t1);
            push_bools(out, sat1);
            push_bools(out, sat2);
            match phase_a {
                None => out.push(0),
                Some(a) => {
                    out.push(1);
                    encode_trajectory(out, a);
                }
            }
            encode_trajectory(out, phase_b);
        }
        CurveExport::Nested {
            n,
            big_t,
            segment_starts,
            segments,
            gamma2,
            t_lo,
            t_hi,
        } => {
            out.push(1);
            push_u32(out, *n as u32);
            push_f64(out, *big_t);
            push_u32(out, segment_starts.len() as u32);
            for &s in segment_starts {
                push_f64(out, s);
            }
            for segment in segments {
                encode_trajectory(out, segment);
            }
            encode_piecewise(out, gamma2);
            push_f64(out, *t_lo);
            push_f64(out, *t_hi);
        }
        CurveExport::Sampled { ts, values } => {
            out.push(2);
            push_u32(out, ts.len() as u32);
            for &t in ts {
                push_f64(out, t);
            }
            push_u32(out, values.len() as u32);
            for row in values {
                for &v in row {
                    push_f64(out, v);
                }
            }
        }
        CurveExport::Point(p) => {
            out.push(3);
            push_u32(out, p.len() as u32);
            for &v in p {
                push_f64(out, v);
            }
        }
    }
}

fn encode_cache(out: &mut Vec<u8>, cache: &SatCacheExport) {
    push_u32(out, cache.state_keys.len() as u32);
    for key in &cache.state_keys {
        match key {
            StateKeyExport::True => out.push(0),
            StateKeyExport::Ap(ap) => {
                out.push(1);
                push_str(out, ap);
            }
            StateKeyExport::Not(a) => {
                out.push(2);
                push_u32(out, *a);
            }
            StateKeyExport::And(a, b) => {
                out.push(3);
                push_u32(out, *a);
                push_u32(out, *b);
            }
            StateKeyExport::Or(a, b) => {
                out.push(4);
                push_u32(out, *a);
                push_u32(out, *b);
            }
            StateKeyExport::Steady { cmp, p_bits, inner } => {
                out.push(5);
                out.push(cmp_byte(*cmp));
                push_u64(out, *p_bits);
                push_u32(out, *inner);
            }
            StateKeyExport::Prob { cmp, p_bits, path } => {
                out.push(6);
                out.push(cmp_byte(*cmp));
                push_u64(out, *p_bits);
                push_u32(out, *path);
            }
        }
    }
    push_u32(out, cache.path_keys.len() as u32);
    for key in &cache.path_keys {
        match key {
            PathKeyExport::Next {
                lo_bits,
                hi_bits,
                inner,
            } => {
                out.push(0);
                push_u64(out, *lo_bits);
                push_u64(out, *hi_bits);
                push_u32(out, *inner);
            }
            PathKeyExport::Until {
                lo_bits,
                hi_bits,
                lhs,
                rhs,
            } => {
                out.push(1);
                push_u64(out, *lo_bits);
                push_u64(out, *hi_bits);
                push_u32(out, *lhs);
                push_u32(out, *rhs);
            }
        }
    }
    push_u32(out, cache.sets.len() as u32);
    for (id, theta_bits, set) in &cache.sets {
        push_u32(out, *id);
        push_u64(out, *theta_bits);
        encode_piecewise(out, set);
    }
    push_u32(out, cache.curves.len() as u32);
    for (id, theta_bits, curve) in &cache.curves {
        push_u32(out, *id);
        push_u64(out, *theta_bits);
        encode_curve(out, curve);
    }
}

impl SessionSnapshot {
    /// The session key this snapshot restores to (faultless by
    /// construction: faulted sessions are never saved).
    #[must_use]
    pub fn key(&self) -> SessionKey {
        SessionKey {
            model: self.model.clone(),
            params: self.params.clone(),
            fast: self.fast,
            fault: None,
            // Simulate sessions are never snapshotted, so a decoded
            // snapshot always restores to the mean-field arm.
            sim: None,
        }
    }

    /// Encodes the snapshot to its on-disk byte layout, checksum included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&MAGIC);
        push_u32(&mut out, VERSION);
        push_str(&mut out, &self.model);
        push_u32(&mut out, self.params.len() as u32);
        for (name, bits) in &self.params {
            push_str(&mut out, name);
            push_u64(&mut out, *bits);
        }
        out.push(u8::from(self.fast));
        push_u32(&mut out, self.entries.len() as u32);
        for entry in &self.entries {
            push_u32(&mut out, entry.m0_bits.len() as u32);
            for bits in &entry.m0_bits {
                push_u64(&mut out, *bits);
            }
            push_u32(&mut out, entry.ts_bits.len() as u32);
            for bits in entry
                .ts_bits
                .iter()
                .chain(&entry.ys_bits)
                .chain(&entry.ds_bits)
            {
                push_u64(&mut out, *bits);
            }
            for stat in &entry.stats {
                push_u64(&mut out, *stat);
            }
            match &entry.regime {
                None => out.push(0),
                Some(regime) => {
                    out.push(1);
                    for bits in &regime.distribution_bits {
                        push_u64(&mut out, *bits);
                    }
                    match regime.settle_bits {
                        None => out.push(0),
                        Some(bits) => {
                            out.push(1);
                            push_u64(&mut out, bits);
                        }
                    }
                }
            }
            encode_cache(&mut out, &entry.cache);
        }
        push_u64(&mut out, self.cached_sets);
        push_u64(&mut out, self.cached_curves);
        let checksum = fnv1a64(&out);
        push_u64(&mut out, checksum);
        out
    }

    /// Decodes and validates a snapshot file.
    ///
    /// # Errors
    ///
    /// Rejects bad magic, unknown schema versions, checksum mismatches,
    /// truncation, and structurally absurd counts, and propagates the
    /// validating constructors' rejections of incoherent payloads. A
    /// rejected file yields no partial data.
    pub fn decode(bytes: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError("truncated snapshot".into()));
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError("bad magic".into()));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let mut checksum_bytes = [0u8; 8];
        checksum_bytes.copy_from_slice(tail);
        if fnv1a64(payload) != u64::from_le_bytes(checksum_bytes) {
            return Err(SnapshotError("checksum mismatch".into()));
        }
        let mut cursor = Cursor {
            bytes: payload,
            at: 4,
        };
        let version = cursor.u32()?;
        if version != VERSION {
            return Err(SnapshotError(format!(
                "schema version {version}, expected {VERSION}"
            )));
        }
        let model = cursor.string(MAX_STR)?;
        let n_params = cursor.count(MAX_PARAMS, "params")?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let name = cursor.string(MAX_STR)?;
            let bits = cursor.u64()?;
            params.push((name, bits));
        }
        let fast = cursor.u8()? != 0;
        let n_entries = cursor.count(MAX_ENTRIES, "entries")?;
        let mut entries = Vec::with_capacity(n_entries.min(1024));
        for _ in 0..n_entries {
            let dim = cursor.count(MAX_DIM, "dimension")?;
            let m0_bits = cursor.u64s(dim)?;
            let knots = cursor.count(MAX_KNOTS, "knots")?;
            let per_knot = knots
                .checked_mul(dim)
                .ok_or_else(|| SnapshotError("knot count overflow".into()))?;
            let ts_bits = cursor.u64s(knots)?;
            let ys_bits = cursor.u64s(per_knot)?;
            let ds_bits = cursor.u64s(per_knot)?;
            let mut stats = [0u64; 5];
            for stat in &mut stats {
                *stat = cursor.u64()?;
            }
            let regime = match cursor.u8()? {
                0 => None,
                1 => {
                    let distribution_bits = cursor.u64s(dim)?;
                    let settle_bits = match cursor.u8()? {
                        0 => None,
                        1 => Some(cursor.u64()?),
                        other => {
                            return Err(SnapshotError(format!("bad settle-time marker {other}")))
                        }
                    };
                    Some(RegimeSnapshot {
                        distribution_bits,
                        settle_bits,
                    })
                }
                other => return Err(SnapshotError(format!("bad regime marker {other}"))),
            };
            let cache = cursor.cache()?;
            entries.push(SnapshotEntry {
                m0_bits,
                ts_bits,
                ys_bits,
                ds_bits,
                stats,
                regime,
                cache,
            });
        }
        let cached_sets = cursor.u64()?;
        let cached_curves = cursor.u64()?;
        if cursor.at != payload.len() {
            return Err(SnapshotError("trailing bytes after payload".into()));
        }
        Ok(SessionSnapshot {
            model,
            params,
            fast,
            entries,
            cached_sets,
            cached_curves,
        })
    }
}

/// A bounds-checked reader over the payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| SnapshotError("truncated snapshot".into()))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn count(&mut self, max: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > max {
            return Err(SnapshotError(format!("absurd {what} count {n}")));
        }
        Ok(n)
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, SnapshotError> {
        let raw = self.take(
            n.checked_mul(8)
                .ok_or_else(|| SnapshotError("length overflow".into()))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(c);
                u64::from_le_bytes(buf)
            })
            .collect())
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, SnapshotError> {
        Ok(self.u64s(n)?.into_iter().map(f64::from_bits).collect())
    }

    fn bools(&mut self, n: usize) -> Result<Vec<bool>, SnapshotError> {
        Ok(self.take(n)?.iter().map(|&b| b != 0).collect())
    }

    fn string(&mut self, max: usize) -> Result<String, SnapshotError> {
        let len = self.count(max, "string length")?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapshotError("non-UTF-8 string".into()))
    }

    fn piecewise(&mut self) -> Result<PiecewiseStateSet, SnapshotError> {
        let t_lo = self.f64()?;
        let t_hi = self.f64()?;
        let n_boundaries = self.count(MAX_MEMOS, "boundaries")?;
        let boundaries = self.f64s(n_boundaries)?;
        let n_states = self.count(MAX_DIM, "set states")?;
        if n_states == 0 {
            return Err(SnapshotError("empty piecewise set".into()));
        }
        let mut sets = Vec::with_capacity(n_boundaries + 1);
        for _ in 0..=n_boundaries {
            sets.push(self.bools(n_states)?);
        }
        PiecewiseStateSet::new(t_lo, t_hi, boundaries, sets)
            .map_err(|e| SnapshotError(format!("bad piecewise set: {e}")))
    }

    fn trajectory(&mut self) -> Result<Trajectory, SnapshotError> {
        let dim = self.count(MAX_DIM, "trajectory dimension")?;
        let knots = self.count(MAX_KNOTS, "trajectory knots")?;
        let per_knot = knots
            .checked_mul(dim)
            .ok_or_else(|| SnapshotError("knot count overflow".into()))?;
        let ts = self.f64s(knots)?;
        let ys = self.f64s(per_knot)?;
        let ds = self.f64s(per_knot)?;
        let mut stats = [0u64; 5];
        for stat in &mut stats {
            *stat = self.u64()?;
        }
        let stats = SolveStats {
            accepted: usize::try_from(stats[0]).unwrap_or(usize::MAX),
            rejected: usize::try_from(stats[1]).unwrap_or(usize::MAX),
            rhs_evals: usize::try_from(stats[2]).unwrap_or(usize::MAX),
            recoveries: usize::try_from(stats[3]).unwrap_or(usize::MAX),
            stiff_fallbacks: usize::try_from(stats[4]).unwrap_or(usize::MAX),
        };
        Trajectory::from_flat(dim, ts, ys, ds, stats)
            .map_err(|e| SnapshotError(format!("bad trajectory: {e}")))
    }

    fn curve(&mut self) -> Result<CurveExport, SnapshotError> {
        match self.u8()? {
            0 => {
                let n = self.count(MAX_DIM, "until states")?;
                let t1 = self.f64()?;
                let sat1 = self.bools(n)?;
                let sat2 = self.bools(n)?;
                let phase_a = match self.u8()? {
                    0 => None,
                    1 => Some(self.trajectory()?),
                    other => return Err(SnapshotError(format!("bad phase-A marker {other}"))),
                };
                let phase_b = self.trajectory()?;
                Ok(CurveExport::Until {
                    n,
                    t1,
                    sat1,
                    sat2,
                    phase_a,
                    phase_b,
                })
            }
            1 => {
                let n = self.count(MAX_DIM, "nested states")?;
                let big_t = self.f64()?;
                let n_segments = self.count(MAX_SEGMENTS, "segments")?;
                let segment_starts = self.f64s(n_segments)?;
                let mut segments = Vec::with_capacity(n_segments);
                for _ in 0..n_segments {
                    segments.push(self.trajectory()?);
                }
                let gamma2 = self.piecewise()?;
                let t_lo = self.f64()?;
                let t_hi = self.f64()?;
                Ok(CurveExport::Nested {
                    n,
                    big_t,
                    segment_starts,
                    segments,
                    gamma2,
                    t_lo,
                    t_hi,
                })
            }
            2 => {
                let n_samples = self.count(MAX_KNOTS, "samples")?;
                let ts = self.f64s(n_samples)?;
                let n_states = self.count(MAX_DIM, "sampled states")?;
                let mut values = Vec::with_capacity(n_states);
                for _ in 0..n_states {
                    values.push(self.f64s(n_samples)?);
                }
                Ok(CurveExport::Sampled { ts, values })
            }
            3 => {
                let n = self.count(MAX_DIM, "point states")?;
                Ok(CurveExport::Point(self.f64s(n)?))
            }
            other => Err(SnapshotError(format!("bad curve tag {other}"))),
        }
    }

    fn cache(&mut self) -> Result<SatCacheExport, SnapshotError> {
        let n_state_keys = self.count(MAX_KEYS, "state keys")?;
        let mut state_keys = Vec::with_capacity(n_state_keys.min(1024));
        for _ in 0..n_state_keys {
            let key = match self.u8()? {
                0 => StateKeyExport::True,
                1 => StateKeyExport::Ap(self.string(MAX_STR)?),
                2 => StateKeyExport::Not(self.u32()?),
                3 => StateKeyExport::And(self.u32()?, self.u32()?),
                4 => StateKeyExport::Or(self.u32()?, self.u32()?),
                5 => {
                    let cmp = cmp_from_byte(self.u8()?)?;
                    let p_bits = self.u64()?;
                    let inner = self.u32()?;
                    StateKeyExport::Steady { cmp, p_bits, inner }
                }
                6 => {
                    let cmp = cmp_from_byte(self.u8()?)?;
                    let p_bits = self.u64()?;
                    let path = self.u32()?;
                    StateKeyExport::Prob { cmp, p_bits, path }
                }
                other => return Err(SnapshotError(format!("bad state-key tag {other}"))),
            };
            state_keys.push(key);
        }
        let n_path_keys = self.count(MAX_KEYS, "path keys")?;
        let mut path_keys = Vec::with_capacity(n_path_keys.min(1024));
        for _ in 0..n_path_keys {
            let key = match self.u8()? {
                0 => PathKeyExport::Next {
                    lo_bits: self.u64()?,
                    hi_bits: self.u64()?,
                    inner: self.u32()?,
                },
                1 => PathKeyExport::Until {
                    lo_bits: self.u64()?,
                    hi_bits: self.u64()?,
                    lhs: self.u32()?,
                    rhs: self.u32()?,
                },
                other => return Err(SnapshotError(format!("bad path-key tag {other}"))),
            };
            path_keys.push(key);
        }
        let n_sets = self.count(MAX_MEMOS, "memoized sets")?;
        let mut sets = Vec::with_capacity(n_sets.min(1024));
        for _ in 0..n_sets {
            let id = self.u32()?;
            let theta_bits = self.u64()?;
            sets.push((id, theta_bits, self.piecewise()?));
        }
        let n_curves = self.count(MAX_MEMOS, "memoized curves")?;
        let mut curves = Vec::with_capacity(n_curves.min(1024));
        for _ in 0..n_curves {
            let id = self.u32()?;
            let theta_bits = self.u64()?;
            curves.push((id, theta_bits, self.curve()?));
        }
        Ok(SatCacheExport {
            state_keys,
            path_keys,
            sets,
            curves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_cache() -> SatCacheExport {
        SatCacheExport {
            state_keys: vec![
                StateKeyExport::True,
                StateKeyExport::Ap("infected".into()),
                StateKeyExport::Prob {
                    cmp: Comparison::Lt,
                    p_bits: 0.5f64.to_bits(),
                    path: 0,
                },
                StateKeyExport::Not(2),
            ],
            path_keys: vec![PathKeyExport::Until {
                lo_bits: 0.0f64.to_bits(),
                hi_bits: 1.0f64.to_bits(),
                lhs: 0,
                rhs: 1,
            }],
            sets: vec![(
                1,
                2.0f64.to_bits(),
                PiecewiseStateSet::new(
                    0.0,
                    2.0,
                    vec![0.75],
                    vec![vec![true, false], vec![false, true]],
                )
                .unwrap(),
            )],
            curves: vec![(
                0,
                2.0f64.to_bits(),
                CurveExport::Until {
                    n: 2,
                    t1: 0.0,
                    sat1: vec![true, true],
                    sat2: vec![false, true],
                    phase_a: None,
                    phase_b: Trajectory::from_flat(
                        4,
                        vec![0.0, 2.0],
                        vec![1.0, 0.0, 0.0, 1.0, 0.9, 0.1, 0.0, 1.0],
                        vec![0.0; 8],
                        SolveStats::default(),
                    )
                    .unwrap(),
                },
            )],
        }
    }

    fn sample() -> SessionSnapshot {
        SessionSnapshot {
            model: "virus".into(),
            params: vec![("k2".into(), 0.5f64.to_bits())],
            fast: true,
            entries: vec![SnapshotEntry {
                m0_bits: vec![0.8f64.to_bits(), 0.2f64.to_bits()],
                ts_bits: vec![0.0f64.to_bits(), 1.0f64.to_bits()],
                ys_bits: vec![
                    0.8f64.to_bits(),
                    0.2f64.to_bits(),
                    0.7f64.to_bits(),
                    0.3f64.to_bits(),
                ],
                ds_bits: vec![0u64; 4],
                stats: [10, 2, 77, 0, 0],
                regime: Some(RegimeSnapshot {
                    distribution_bits: vec![0.25f64.to_bits(), 0.75f64.to_bits()],
                    settle_bits: Some(4.5f64.to_bits()),
                }),
                cache: sample_cache(),
            }],
            cached_sets: 3,
            cached_curves: 1,
        }
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let snapshot = sample();
        let bytes = snapshot.encode();
        let decoded = SessionSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn snapshot_without_regime_or_cache_round_trips() {
        let mut snapshot = sample();
        snapshot.entries[0].regime = None;
        snapshot.entries[0].cache = SatCacheExport::default();
        let bytes = snapshot.encode();
        assert_eq!(SessionSnapshot::decode(&bytes).unwrap(), snapshot);
    }

    #[test]
    fn nested_and_sampled_curves_round_trip() {
        let mut snapshot = sample();
        snapshot.entries[0].cache.curves = vec![
            (
                0,
                1.0f64.to_bits(),
                CurveExport::Nested {
                    n: 1,
                    big_t: 1.0,
                    segment_starts: vec![0.0],
                    segments: vec![Trajectory::from_flat(
                        4,
                        vec![0.0, 1.0],
                        vec![1.0, 0.0, 0.0, 1.0, 0.8, 0.2, 0.0, 1.0],
                        vec![0.0; 8],
                        SolveStats::default(),
                    )
                    .unwrap()],
                    gamma2: PiecewiseStateSet::constant(0.0, 2.0, vec![false]).unwrap(),
                    t_lo: 0.0,
                    t_hi: 1.0,
                },
            ),
            (
                0,
                2.0f64.to_bits(),
                CurveExport::Sampled {
                    ts: vec![0.0, 1.0, 2.0],
                    values: vec![vec![0.1, 0.2, 0.3], vec![0.9, 0.8, 0.7]],
                },
            ),
            (0, 0.0f64.to_bits(), CurveExport::Point(vec![0.25, 0.75])),
        ];
        let bytes = snapshot.encode();
        assert_eq!(SessionSnapshot::decode(&bytes).unwrap(), snapshot);
    }

    #[test]
    fn corrupt_truncated_and_wrong_version_snapshots_are_rejected() {
        let bytes = sample().encode();

        // Flip one payload byte: checksum mismatch.
        let mut corrupt = bytes.clone();
        corrupt[10] ^= 0x40;
        let err = SessionSnapshot::decode(&corrupt).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncate: structurally invalid.
        let err = SessionSnapshot::decode(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(
            err.to_string().contains("checksum") || err.to_string().contains("truncated"),
            "{err}"
        );

        // Wrong version (with a recomputed checksum so only the version
        // check can reject it).
        let mut wrong = bytes.clone();
        wrong[4] = 99;
        let without_sum = wrong.len() - 8;
        let sum = fnv1a64(&wrong[..without_sum]);
        wrong[without_sum..].copy_from_slice(&sum.to_le_bytes());
        let err = SessionSnapshot::decode(&wrong).unwrap_err();
        assert!(err.to_string().contains("schema version 99"), "{err}");

        // Wrong magic.
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        let err = SessionSnapshot::decode(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn structurally_incoherent_payloads_are_rejected_not_trusted() {
        // A piecewise set whose boundary escapes the domain fails its
        // validating constructor even though the checksum is valid. Drop
        // the regime first so the boundary's bit pattern is unique in the
        // payload (the sample regime also contains 0.75).
        let mut snapshot = sample();
        snapshot.entries[0].regime = None;
        let mut bytes = snapshot.encode();
        // The boundary 0.75 is encoded at a fixed offset; instead of hunting
        // for it, flip its bits wholesale and re-checksum: decode must fail
        // in the constructor, not panic later.
        let needle = 0.75f64.to_bits().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == needle)
            .expect("boundary bits present");
        bytes[pos..pos + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let without_sum = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..without_sum]);
        bytes[without_sum..].copy_from_slice(&sum.to_le_bytes());
        let err = SessionSnapshot::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("piecewise"), "{err}");
    }

    #[test]
    fn key_hash_is_stable_across_processes() {
        // These constants pin the key hash: if the encoding or the hash
        // ever changes, old snapshots would be orphaned on upgrade — fail
        // loudly here instead.
        let key = SessionKey::new("virus", &BTreeMap::new(), false, None);
        assert_eq!(fnv1a64(&key_bytes(&key)), 0x166e_c6c5_4f88_094d);
        let tweaked = SessionKey::new(
            "virus",
            &[("k2".to_string(), 0.5)].into_iter().collect(),
            false,
            None,
        );
        assert_ne!(fnv1a64(&key_bytes(&key)), fnv1a64(&key_bytes(&tweaked)));
        assert_eq!(
            file_name(&key),
            format!("sess-{:016x}.snap", 0x166e_c6c5_4f88_094d_u64)
        );
        // The statistical-lane arm routes to its own hash, never aliasing
        // the mean-field key.
        let mut simulated = key.clone();
        simulated.sim = Some(crate::store::SimKey {
            population: 100,
            replications: 200,
            seed: 0,
        });
        assert_ne!(fnv1a64(&key_bytes(&key)), fnv1a64(&key_bytes(&simulated)));
    }
}

//! Hash-consed formulas and memoized satisfaction sets.
//!
//! Checking a batch of MF-CSL formulas over one mean-field trajectory
//! re-derives the same CSL subformulas again and again: `E` and `EP`
//! operators share atomic propositions, until operands, and often whole
//! `P`-subformulas. [`SatCache`] interns every state and path formula it
//! sees into structural ids (so syntactically identical subtrees get the
//! same id regardless of where they appear) and memoizes the expensive
//! products of the checker — [`PiecewiseStateSet`]s and [`ProbCurve`]s —
//! keyed by `(formula id, evaluation horizon θ)`.
//!
//! # Validity
//!
//! A cache is only meaningful for a fixed local model trajectory and fixed
//! tolerances: entries are *not* invalidated automatically. The analysis
//! engine in `mfcsl-core` owns one cache per `(initial occupancy,
//! tolerances)` pair and relies on trajectory *extension* keeping the
//! already-solved prefix bitwise identical, so entries computed against a
//! shorter trajectory stay exact after the horizon grows (every entry only
//! ever examined times within its own solve horizon).
//!
//! # Concurrency
//!
//! The cache is `Send + Sync`: the tables are sharded reader–writer maps
//! ([`ShardedMap`]) handing out `Arc`s, the counters are atomics. Pool
//! tasks of one checking session therefore share a single cache. Two
//! tasks may race to compute the same entry — both compute, last write
//! wins — which is harmless *because* every cached artifact is a
//! deterministic, bitwise-reproducible function of `(formula, θ)` over
//! the fixed trajectory: the winner stores exactly the bytes the loser
//! would have.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mfcsl_pool::shard::ShardedMap;

use crate::checker::ProbCurve;
use crate::nested::PiecewiseStateSet;
use crate::syntax::{Comparison, PathFormula, StateFormula};

/// Interned id of a state formula (structurally shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId(u32);

/// Interned id of a path formula (structurally shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(u32);

/// Structural key of a state formula with children resolved to ids and
/// probability bounds keyed by their bit patterns (`f64::to_bits`), so two
/// bounds compare equal exactly when the checker would treat them
/// identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum StateKey {
    True,
    Ap(String),
    Not(StateId),
    And(StateId, StateId),
    Or(StateId, StateId),
    Steady {
        cmp: Comparison,
        p_bits: u64,
        inner: StateId,
    },
    Prob {
        cmp: Comparison,
        p_bits: u64,
        path: PathId,
    },
}

/// Structural key of a path formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PathKey {
    Next {
        lo_bits: u64,
        hi_bits: u64,
        inner: StateId,
    },
    Until {
        lo_bits: u64,
        hi_bits: u64,
        lhs: StateId,
        rhs: StateId,
    },
}

/// The serializable form of a `StateKey`: children are referred to by
/// their dense interned index. Exports are *prefix-closed*: every child
/// index is strictly smaller than the entry's own index (state children)
/// or within the companion table (path children), which is what lets an
/// importer re-intern in table order.
#[derive(Debug, Clone, PartialEq)]
pub enum StateKeyExport {
    /// The `tt` formula.
    True,
    /// An atomic proposition.
    Ap(String),
    /// Negation of the state formula at the given index.
    Not(u32),
    /// Conjunction of two state formulas.
    And(u32, u32),
    /// Disjunction of two state formulas.
    Or(u32, u32),
    /// A steady-state bound over an inner state formula.
    Steady {
        /// The comparison operator.
        cmp: Comparison,
        /// The probability bound's bit pattern.
        p_bits: u64,
        /// Index of the inner state formula.
        inner: u32,
    },
    /// A probability bound over a path formula.
    Prob {
        /// The comparison operator.
        cmp: Comparison,
        /// The probability bound's bit pattern.
        p_bits: u64,
        /// Index of the path formula.
        path: u32,
    },
}

/// The serializable form of a `PathKey`; see [`StateKeyExport`].
#[derive(Debug, Clone, PartialEq)]
pub enum PathKeyExport {
    /// An interval next over a state formula.
    Next {
        /// Interval lower bound bit pattern.
        lo_bits: u64,
        /// Interval upper bound bit pattern.
        hi_bits: u64,
        /// Index of the inner state formula.
        inner: u32,
    },
    /// An interval until over two state formulas.
    Until {
        /// Interval lower bound bit pattern.
        lo_bits: u64,
        /// Interval upper bound bit pattern.
        hi_bits: u64,
        /// Index of the invariant operand.
        lhs: u32,
        /// Index of the goal operand.
        rhs: u32,
    },
}

/// A serializable snapshot of a [`SatCache`]: the interner tables indexed
/// densely by id, plus the memoized sets and curves keyed by `(id, θ
/// bits)`. Produced by [`SatCache::export`], consumed by
/// [`SatCache::from_export`]; the round trip preserves interned ids and
/// every memoized artifact bitwise, so a restored cache serves the exact
/// hits the original would have.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SatCacheExport {
    /// State-formula keys, indexed by interned id.
    pub state_keys: Vec<StateKeyExport>,
    /// Path-formula keys, indexed by interned id.
    pub path_keys: Vec<PathKeyExport>,
    /// Memoized satisfaction sets as `(state id, θ bits, set)`, sorted by
    /// key for deterministic serialized bytes.
    pub sets: Vec<(u32, u64, PiecewiseStateSet)>,
    /// Memoized probability curves as `(path id, θ bits, curve)`, sorted
    /// by key.
    pub curves: Vec<(u32, u64, crate::checker::CurveExport)>,
}

/// Counters and sizes of a [`SatCache`], as reported by
/// [`SatCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Satisfaction-set lookups that found a memoized entry.
    pub set_hits: u64,
    /// Satisfaction-set lookups that had to compute.
    pub set_misses: u64,
    /// Probability-curve lookups that found a memoized entry.
    pub curve_hits: u64,
    /// Probability-curve lookups that had to compute.
    pub curve_misses: u64,
    /// Distinct state formulas interned.
    pub interned_state_formulas: usize,
    /// Distinct path formulas interned.
    pub interned_path_formulas: usize,
    /// Memoized satisfaction sets currently stored.
    pub cached_sets: usize,
    /// Memoized probability curves currently stored.
    pub cached_curves: usize,
}

/// Hash-consing interner plus memo tables for satisfaction sets and
/// probability curves, shared across the tasks of a checking session. See
/// the [module documentation](self) for validity and concurrency rules.
#[derive(Debug, Default)]
pub struct SatCache {
    state_keys: ShardedMap<StateKey, StateId>,
    path_keys: ShardedMap<PathKey, PathId>,
    sets: ShardedMap<(StateId, u64), Arc<PiecewiseStateSet>>,
    curves: ShardedMap<(PathId, u64), Arc<ProbCurve>>,
    next_state_id: AtomicU64,
    next_path_id: AtomicU64,
    set_hits: AtomicU64,
    set_misses: AtomicU64,
    curve_hits: AtomicU64,
    curve_misses: AtomicU64,
}

impl SatCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        SatCache::default()
    }

    /// Interns a state formula, returning its structural id. Identical
    /// subtrees — anywhere, in any formula, from any thread — map to the
    /// same id.
    pub fn intern_state(&self, phi: &StateFormula) -> StateId {
        let key = match phi {
            StateFormula::True => StateKey::True,
            StateFormula::Ap(ap) => StateKey::Ap(ap.clone()),
            StateFormula::Not(inner) => StateKey::Not(self.intern_state(inner)),
            StateFormula::And(a, b) => StateKey::And(self.intern_state(a), self.intern_state(b)),
            StateFormula::Or(a, b) => StateKey::Or(self.intern_state(a), self.intern_state(b)),
            StateFormula::Steady { cmp, p, inner } => StateKey::Steady {
                cmp: *cmp,
                p_bits: p.to_bits(),
                inner: self.intern_state(inner),
            },
            StateFormula::Prob { cmp, p, path } => StateKey::Prob {
                cmp: *cmp,
                p_bits: p.to_bits(),
                path: self.intern_path(path),
            },
        };
        self.state_keys.get_or_insert_with(key, || {
            StateId(self.next_state_id.fetch_add(1, Ordering::Relaxed) as u32)
        })
    }

    /// Interns a path formula, returning its structural id.
    pub fn intern_path(&self, path: &PathFormula) -> PathId {
        let key = match path {
            PathFormula::Next { interval, inner } => PathKey::Next {
                lo_bits: interval.lo().to_bits(),
                hi_bits: interval.hi().to_bits(),
                inner: self.intern_state(inner),
            },
            PathFormula::Until { interval, lhs, rhs } => PathKey::Until {
                lo_bits: interval.lo().to_bits(),
                hi_bits: interval.hi().to_bits(),
                lhs: self.intern_state(lhs),
                rhs: self.intern_state(rhs),
            },
        };
        self.path_keys.get_or_insert_with(key, || {
            PathId(self.next_path_id.fetch_add(1, Ordering::Relaxed) as u32)
        })
    }

    /// Looks up a memoized satisfaction set for `(id, θ)`, counting the
    /// outcome as a hit or miss.
    pub(crate) fn lookup_set(&self, id: StateId, theta: f64) -> Option<Arc<PiecewiseStateSet>> {
        let found = self.sets.get(&(id, theta.to_bits()));
        match &found {
            Some(_) => self.set_hits.fetch_add(1, Ordering::Relaxed),
            None => self.set_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Memoizes a satisfaction set for `(id, θ)`.
    pub(crate) fn store_set(&self, id: StateId, theta: f64, set: Arc<PiecewiseStateSet>) {
        self.sets.insert((id, theta.to_bits()), set);
    }

    /// Looks up a memoized probability curve for `(id, θ)`, counting the
    /// outcome.
    pub(crate) fn lookup_curve(&self, id: PathId, theta: f64) -> Option<Arc<ProbCurve>> {
        let found = self.curves.get(&(id, theta.to_bits()));
        match &found {
            Some(_) => self.curve_hits.fetch_add(1, Ordering::Relaxed),
            None => self.curve_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Memoizes a probability curve for `(id, θ)`.
    pub(crate) fn store_curve(&self, id: PathId, theta: f64, curve: Arc<ProbCurve>) {
        self.curves.insert((id, theta.to_bits()), curve);
    }

    /// A snapshot of the hit/miss counters and table sizes.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            set_hits: self.set_hits.load(Ordering::Relaxed),
            set_misses: self.set_misses.load(Ordering::Relaxed),
            curve_hits: self.curve_hits.load(Ordering::Relaxed),
            curve_misses: self.curve_misses.load(Ordering::Relaxed),
            interned_state_formulas: self.state_keys.len(),
            interned_path_formulas: self.path_keys.len(),
            cached_sets: self.sets.len(),
            cached_curves: self.curves.len(),
        }
    }

    /// Drops every memoized set and curve (the interner is kept; ids remain
    /// stable). Use when the underlying trajectory is replaced rather than
    /// extended.
    pub fn invalidate(&self) {
        self.sets.clear();
        self.curves.clear();
    }

    /// Snapshots the cache into its serializable form: dense id-indexed
    /// interner tables plus the memo tables, everything bitwise.
    ///
    /// Interning always assigns children before parents, so the tables are
    /// prefix-closed by construction. If a racing intern lands mid-export
    /// (snapshots are taken on idle sessions, but the cache is shared), the
    /// largest mutually consistent prefix of both tables is kept and memo
    /// entries referring past it are dropped — a smaller-but-sound export,
    /// never a dangling reference.
    #[must_use]
    pub fn export(&self) -> SatCacheExport {
        let mut states: Vec<(u32, StateKeyExport)> = Vec::with_capacity(self.state_keys.len());
        self.state_keys.for_each(|key, id| {
            let exported = match key {
                StateKey::True => StateKeyExport::True,
                StateKey::Ap(ap) => StateKeyExport::Ap(ap.clone()),
                StateKey::Not(a) => StateKeyExport::Not(a.0),
                StateKey::And(a, b) => StateKeyExport::And(a.0, b.0),
                StateKey::Or(a, b) => StateKeyExport::Or(a.0, b.0),
                StateKey::Steady { cmp, p_bits, inner } => StateKeyExport::Steady {
                    cmp: *cmp,
                    p_bits: *p_bits,
                    inner: inner.0,
                },
                StateKey::Prob { cmp, p_bits, path } => StateKeyExport::Prob {
                    cmp: *cmp,
                    p_bits: *p_bits,
                    path: path.0,
                },
            };
            states.push((id.0, exported));
        });
        let mut paths: Vec<(u32, PathKeyExport)> = Vec::with_capacity(self.path_keys.len());
        self.path_keys.for_each(|key, id| {
            let exported = match key {
                PathKey::Next {
                    lo_bits,
                    hi_bits,
                    inner,
                } => PathKeyExport::Next {
                    lo_bits: *lo_bits,
                    hi_bits: *hi_bits,
                    inner: inner.0,
                },
                PathKey::Until {
                    lo_bits,
                    hi_bits,
                    lhs,
                    rhs,
                } => PathKeyExport::Until {
                    lo_bits: *lo_bits,
                    hi_bits: *hi_bits,
                    lhs: lhs.0,
                    rhs: rhs.0,
                },
            };
            paths.push((id.0, exported));
        });
        states.sort_by_key(|(id, _)| *id);
        paths.sort_by_key(|(id, _)| *id);
        // Contiguous prefixes (a gap means a racing intern mid-walk).
        let mut n_states = states
            .iter()
            .enumerate()
            .take_while(|(i, (id, _))| *id as usize == *i)
            .count();
        let mut n_paths = paths
            .iter()
            .enumerate()
            .take_while(|(i, (id, _))| *id as usize == *i)
            .count();
        // Shrink to the largest mutually closed prefix pair: state keys may
        // reference path ids and vice versa.
        loop {
            let state_ok = |key: &StateKeyExport, i: usize, np: u32| match key {
                StateKeyExport::True | StateKeyExport::Ap(_) => true,
                StateKeyExport::Not(a) => (*a as usize) < i,
                StateKeyExport::And(a, b) | StateKeyExport::Or(a, b) => {
                    (*a as usize) < i && (*b as usize) < i
                }
                StateKeyExport::Steady { inner, .. } => (*inner as usize) < i,
                StateKeyExport::Prob { path, .. } => *path < np,
            };
            let path_ok = |key: &PathKeyExport, ns: u32| match key {
                PathKeyExport::Next { inner, .. } => *inner < ns,
                PathKeyExport::Until { lhs, rhs, .. } => *lhs < ns && *rhs < ns,
            };
            let bad_state = states[..n_states]
                .iter()
                .enumerate()
                .position(|(i, (_, key))| !state_ok(key, i, n_paths as u32));
            if let Some(i) = bad_state {
                n_states = i;
                continue;
            }
            let bad_path = paths[..n_paths]
                .iter()
                .position(|(_, key)| !path_ok(key, n_states as u32));
            if let Some(i) = bad_path {
                n_paths = i;
                continue;
            }
            break;
        }
        states.truncate(n_states);
        paths.truncate(n_paths);

        let mut sets: Vec<(u32, u64, PiecewiseStateSet)> = Vec::new();
        self.sets.for_each(|(id, theta_bits), set| {
            if (id.0 as usize) < n_states {
                sets.push((id.0, *theta_bits, (**set).clone()));
            }
        });
        sets.sort_by_key(|(id, theta_bits, _)| (*id, *theta_bits));
        let mut curves: Vec<(u32, u64, crate::checker::CurveExport)> = Vec::new();
        self.curves.for_each(|(id, theta_bits), curve| {
            if (id.0 as usize) < n_paths {
                curves.push((id.0, *theta_bits, curve.export()));
            }
        });
        curves.sort_by_key(|(id, theta_bits, _)| (*id, *theta_bits));

        SatCacheExport {
            state_keys: states.into_iter().map(|(_, key)| key).collect(),
            path_keys: paths.into_iter().map(|(_, key)| key).collect(),
            sets,
            curves,
        }
    }

    /// Rebuilds a cache from an export: keys are re-interned at their
    /// original ids (so future structural interning of the same formulas
    /// finds the memoized entries), memoized sets are installed as-is, and
    /// curves are revalidated through [`crate::checker::ProbCurve::from_export`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CslError::InvalidArgument`] on out-of-range child
    /// references or structurally incoherent curve data — a corrupt export
    /// yields no cache rather than a panicking one.
    pub fn from_export(export: &SatCacheExport) -> Result<SatCache, crate::CslError> {
        use crate::CslError;
        let ns = export.state_keys.len();
        let np = export.path_keys.len();
        let state_ref = |child: u32, i: usize| {
            if (child as usize) < i {
                Ok(StateId(child))
            } else {
                Err(CslError::InvalidArgument(format!(
                    "cache export: state key {i} references child {child}"
                )))
            }
        };
        let cache = SatCache::new();
        for (i, key) in export.state_keys.iter().enumerate() {
            let key = match key {
                StateKeyExport::True => StateKey::True,
                StateKeyExport::Ap(ap) => StateKey::Ap(ap.clone()),
                StateKeyExport::Not(a) => StateKey::Not(state_ref(*a, i)?),
                StateKeyExport::And(a, b) => StateKey::And(state_ref(*a, i)?, state_ref(*b, i)?),
                StateKeyExport::Or(a, b) => StateKey::Or(state_ref(*a, i)?, state_ref(*b, i)?),
                StateKeyExport::Steady { cmp, p_bits, inner } => StateKey::Steady {
                    cmp: *cmp,
                    p_bits: *p_bits,
                    inner: state_ref(*inner, i)?,
                },
                StateKeyExport::Prob { cmp, p_bits, path } => {
                    if (*path as usize) >= np {
                        return Err(CslError::InvalidArgument(format!(
                            "cache export: state key {i} references path {path}, \
                             table has {np}"
                        )));
                    }
                    StateKey::Prob {
                        cmp: *cmp,
                        p_bits: *p_bits,
                        path: PathId(*path),
                    }
                }
            };
            cache.state_keys.insert(key, StateId(i as u32));
        }
        for (i, key) in export.path_keys.iter().enumerate() {
            let check = |child: u32| {
                if (child as usize) < ns {
                    Ok(StateId(child))
                } else {
                    Err(CslError::InvalidArgument(format!(
                        "cache export: path key {i} references state {child}, \
                         table has {ns}"
                    )))
                }
            };
            let key = match key {
                PathKeyExport::Next {
                    lo_bits,
                    hi_bits,
                    inner,
                } => PathKey::Next {
                    lo_bits: *lo_bits,
                    hi_bits: *hi_bits,
                    inner: check(*inner)?,
                },
                PathKeyExport::Until {
                    lo_bits,
                    hi_bits,
                    lhs,
                    rhs,
                } => PathKey::Until {
                    lo_bits: *lo_bits,
                    hi_bits: *hi_bits,
                    lhs: check(*lhs)?,
                    rhs: check(*rhs)?,
                },
            };
            cache.path_keys.insert(key, PathId(i as u32));
        }
        cache.next_state_id.store(ns as u64, Ordering::Relaxed);
        cache.next_path_id.store(np as u64, Ordering::Relaxed);
        for (id, theta_bits, set) in &export.sets {
            if (*id as usize) >= ns {
                return Err(CslError::InvalidArgument(format!(
                    "cache export: memoized set references state id {id}"
                )));
            }
            cache
                .sets
                .insert((StateId(*id), *theta_bits), Arc::new(set.clone()));
        }
        for (id, theta_bits, curve) in &export.curves {
            if (*id as usize) >= np {
                return Err(CslError::InvalidArgument(format!(
                    "cache export: memoized curve references path id {id}"
                )));
            }
            let rebuilt =
                crate::checker::ProbCurve::from_export(f64::from_bits(*theta_bits), curve.clone())?;
            cache
                .curves
                .insert((PathId(*id), *theta_bits), Arc::new(rebuilt));
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_path_formula, parse_state_formula};

    #[test]
    fn structural_sharing_across_formulas() {
        let cache = SatCache::new();
        let a = parse_state_formula("P{<0.5}[ healthy U[0,1] infected ]").unwrap();
        let b = parse_state_formula("!P{<0.5}[ healthy U[0,1] infected ]").unwrap();
        let ia = cache.intern_state(&a);
        let ib = cache.intern_state(&b);
        assert_ne!(ia, ib);
        // The shared P-subformula interned once; `b` adds only the Not node.
        if let StateFormula::Not(inner) = &b {
            assert_eq!(cache.intern_state(inner), ia);
        } else {
            panic!("expected Not");
        }
        let stats = cache.stats();
        // tt-free formula tree: healthy, infected, until-path, P, Not.
        assert_eq!(stats.interned_state_formulas, 4);
        assert_eq!(stats.interned_path_formulas, 1);
    }

    #[test]
    fn interning_is_idempotent() {
        let cache = SatCache::new();
        let phi = parse_state_formula("a & (b | !a)").unwrap();
        let first = cache.intern_state(&phi);
        let second = cache.intern_state(&phi);
        assert_eq!(first, second);
        let n = cache.stats().interned_state_formulas;
        let _ = cache.intern_state(&phi);
        assert_eq!(cache.stats().interned_state_formulas, n);
    }

    #[test]
    fn probability_bounds_key_by_bits() {
        let cache = SatCache::new();
        let a = parse_state_formula("P{<0.5}[ tt U[0,1] x ]").unwrap();
        let b = parse_state_formula("P{<0.25}[ tt U[0,1] x ]").unwrap();
        assert_ne!(cache.intern_state(&a), cache.intern_state(&b));
        // Same bound, same interval — shared path id.
        let pa = parse_path_formula("tt U[0,1] x").unwrap();
        let pb = parse_path_formula("tt U[0,2] x").unwrap();
        assert_ne!(cache.intern_path(&pa), cache.intern_path(&pb));
        // `a` and `b` share one until path; `pb` adds the second.
        assert_eq!(cache.stats().interned_path_formulas, 2);
    }

    #[test]
    fn memo_tables_count_hits_and_misses() {
        let cache = SatCache::new();
        let phi = parse_state_formula("tt").unwrap();
        let id = cache.intern_state(&phi);
        assert!(cache.lookup_set(id, 1.0).is_none());
        let set = Arc::new(PiecewiseStateSet::constant(0.0, 1.0, vec![true]).unwrap());
        cache.store_set(id, 1.0, set);
        assert!(cache.lookup_set(id, 1.0).is_some());
        // A different horizon is a different key.
        assert!(cache.lookup_set(id, 2.0).is_none());
        let stats = cache.stats();
        assert_eq!(stats.set_hits, 1);
        assert_eq!(stats.set_misses, 2);
        assert_eq!(stats.cached_sets, 1);
        cache.invalidate();
        assert_eq!(cache.stats().cached_sets, 0);
        // Interner survives invalidation.
        assert_eq!(cache.intern_state(&phi), id);
    }

    #[test]
    fn export_import_round_trip_preserves_ids_and_memos() {
        let cache = SatCache::new();
        let phi = parse_state_formula("!P{<0.5}[ healthy U[0,1] infected ]").unwrap();
        let psi = parse_state_formula("S{>0.1}[ infected ]").unwrap();
        let sid = cache.intern_state(&phi);
        let _ = cache.intern_state(&psi);
        let path = parse_path_formula("healthy U[0,1] infected").unwrap();
        let pid = cache.intern_path(&path);
        let set = Arc::new(
            PiecewiseStateSet::new(
                0.0,
                2.0,
                vec![1.0],
                vec![vec![true, false], vec![false, true]],
            )
            .unwrap(),
        );
        cache.store_set(sid, 2.0, Arc::clone(&set));
        let curve = Arc::new(
            crate::checker::ProbCurve::from_export(
                1.0,
                crate::checker::CurveExport::Point(vec![0.25, 0.75]),
            )
            .unwrap(),
        );
        cache.store_curve(pid, 1.0, Arc::clone(&curve));

        let export = cache.export();
        let restored = SatCache::from_export(&export).unwrap();

        // Structural re-interning lands on the exact ids the memos use...
        assert_eq!(restored.intern_state(&phi), sid);
        assert_eq!(restored.intern_path(&path), pid);
        // ...so the memoized artifacts are found, bitwise intact.
        let got = restored.lookup_set(sid, 2.0).expect("set survives");
        assert_eq!(*got, *set);
        let got = restored.lookup_curve(pid, 1.0).expect("curve survives");
        let (a, b) = (got.probs_at(0.5), curve.probs_at(0.5));
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // A second export round-trips to the same value.
        assert_eq!(restored.export(), export);
        // Fresh interns allocate past the imported tables, never colliding.
        let fresh = parse_state_formula("neverseen").unwrap();
        let fid = restored.intern_state(&fresh);
        assert!(fid.0 as usize >= export.state_keys.len());
    }

    #[test]
    fn import_rejects_out_of_bounds_references() {
        let mut export = SatCacheExport::default();
        export.state_keys.push(StateKeyExport::Not(5));
        assert!(SatCache::from_export(&export).is_err());
        let mut export = SatCacheExport::default();
        export.path_keys.push(PathKeyExport::Next {
            lo_bits: 0,
            hi_bits: 0,
            inner: 3,
        });
        assert!(SatCache::from_export(&export).is_err());
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<SatCache>();
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let cache = SatCache::new();
        let pool = mfcsl_pool::ThreadPool::new(8);
        let phis: Vec<StateFormula> = (0..4)
            .map(|i| parse_state_formula(&format!("P{{<0.5}}[ a{i} U[0,1] b ]")).unwrap())
            .collect();
        let mut ids = vec![None; 64];
        pool.scope(|s| {
            for (i, slot) in ids.iter_mut().enumerate() {
                let cache = &cache;
                let phi = &phis[i % 4];
                s.spawn(move || *slot = Some(cache.intern_state(phi)));
            }
        });
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.unwrap(), ids[i % 4].unwrap());
        }
        // 4 Prob nodes + 4 a_i + shared b = 9 state formulas, 4 paths.
        assert_eq!(cache.stats().interned_state_formulas, 9);
        assert_eq!(cache.stats().interned_path_formulas, 4);
    }
}

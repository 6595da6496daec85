//! Parameterized replay: the incremental-sweep core.
//!
//! A batch-size sweep asks the same question B times over event streams
//! that differ only in the sizes of batch-scaled segments (activations,
//! gradients, batch data). [`ParamReplay`] factors that stream once into
//! a **batch-invariant structure** (event order, block identity,
//! alloc/free polarity) plus a **per-event affine size model**
//! `bytes(b) = base + slope·b`, fitted from three profiled anchor
//! batches and *proven* exact before use:
//!
//! - the orchestrated streams of all anchors must be structurally
//!   identical (same events over the same dense block ids, same
//!   filter/adjust/lifecycle counts, same per-category block counts);
//! - every per-event size and per-category byte total must fit the
//!   affine model from the endpoint anchors *exactly* (integral slope,
//!   non-negative base) and reproduce every interior anchor bit-for-bit.
//!
//! Any violation yields a [`ParamRejection`] and callers fall back to
//! the full per-batch pipeline, so the incremental path can only ever
//! be a pure speedup — never an approximation. Timestamps are copied
//! verbatim from the lowest anchor: under the eligibility gate
//! (`gc_threshold` off, no timeline) the simulated allocator reads the
//! clock for labelling only, so nominal timestamps replay
//! bit-identically (the same argument that underpins
//! [`derive_from_replay`](crate::Estimator::derive_from_replay)).
//!
//! [`materialize`](ParamReplay::materialize) yields the same
//! [`EventBuffer`] the Orchestrator builds for ordinary replays: dense
//! block ids index a flat handle table, so a replay walks four parallel
//! vectors instead of chasing a `HashMap`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::analyzer::AnalyzedTrace;
use crate::orchestrator::{EventBuffer, Orchestrator};
use crate::pipeline::{analysis_stats, AnalysisStats};

/// Why a parameterized-replay fit was refused (→ full replay fallback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamRejection {
    /// Fewer than the three anchors needed to fit and validate.
    TooFewAnchors,
    /// Anchor batches were not strictly increasing.
    UnorderedAnchors,
    /// An anchor's orchestrated stream differs structurally from the
    /// others (event order, polarity, block identity, or counts).
    StructureMismatch {
        /// The offending anchor's batch size.
        batch: usize,
    },
    /// An event's size is not affine in the batch across all anchors.
    NonAffineSize {
        /// Index of the offending event in the orchestrated stream.
        event: usize,
    },
    /// A category's byte total is not affine in the batch.
    NonAffineCategory {
        /// The offending category name.
        category: String,
    },
}

impl fmt::Display for ParamRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamRejection::TooFewAnchors => {
                write!(f, "parameterized replay needs at least three anchors")
            }
            ParamRejection::UnorderedAnchors => {
                write!(f, "anchor batches must be strictly increasing")
            }
            ParamRejection::StructureMismatch { batch } => {
                write!(f, "anchor batch {batch} has a different event structure")
            }
            ParamRejection::NonAffineSize { event } => {
                write!(f, "event {event} size is not affine in the batch")
            }
            ParamRejection::NonAffineCategory { category } => {
                write!(f, "category `{category}` bytes are not affine in the batch")
            }
        }
    }
}

impl std::error::Error for ParamRejection {}

/// One analysis category's fitted block count and affine byte model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct CategoryFit {
    name: String,
    count: usize,
    base_bytes: u64,
    slope_bytes: u64,
}

/// A proven-exact, batch-parameterized event stream.
///
/// Fitted once from three profiled anchors via [`ParamReplay::fit`] and
/// then [materialized](ParamReplay::materialize) at any batch in
/// [`ParamReplay::batch_range`] in O(events) — no profiling, no
/// orchestration. The fit is conservative: see the module docs for the
/// exactness proof obligations, and [`ParamRejection`] for the ways a
/// stream can fail them.
///
/// Deserializing checks what a fit guarantees and a replay relies on:
/// equal column lengths, block ids below `num_blocks` (itself at most the
/// event count), `batch_lo <= batch_hi`, and sizes and category totals
/// that fit a `u64` at `batch_hi`. A record that fails is an error, never
/// a replay that panics or wraps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ParamReplay {
    ts_us: Vec<u64>,
    block: Vec<u32>,
    is_alloc: Vec<bool>,
    base: Vec<u64>,
    slope: Vec<u64>,
    num_blocks: usize,
    batch_lo: usize,
    batch_hi: usize,
    filtered_blocks: usize,
    adjusted_blocks: usize,
    unmatched_frees: usize,
    categories: Vec<CategoryFit>,
}

/// The serialized fields of a [`ParamReplay`], before
/// [`ParamReplayRecord::check`] vouches for them.
#[derive(Deserialize)]
struct ParamReplayRecord {
    ts_us: Vec<u64>,
    block: Vec<u32>,
    is_alloc: Vec<bool>,
    base: Vec<u64>,
    slope: Vec<u64>,
    num_blocks: usize,
    batch_lo: usize,
    batch_hi: usize,
    filtered_blocks: usize,
    adjusted_blocks: usize,
    unmatched_frees: usize,
    categories: Vec<CategoryFit>,
}

impl ParamReplayRecord {
    /// The replay, or why the record cannot be one.
    fn check(self) -> Result<ParamReplay, &'static str> {
        let events = self.block.len();
        if [
            self.ts_us.len(),
            self.is_alloc.len(),
            self.base.len(),
            self.slope.len(),
        ]
        .iter()
        .any(|&len| len != events)
        {
            return Err("parameterized replay columns differ in length");
        }
        if self.num_blocks > events || self.block.iter().any(|&b| b as usize >= self.num_blocks) {
            return Err("parameterized replay block id out of range");
        }
        if self.batch_lo > self.batch_hi {
            return Err("parameterized replay batch range is empty");
        }
        // Sizes are non-decreasing in the batch, so the top of the range
        // bounds them all.
        let hi = self.batch_hi as u64;
        let fits = |base: u64, slope: u64| {
            slope
                .checked_mul(hi)
                .and_then(|scaled| scaled.checked_add(base))
                .is_some()
        };
        if !self.base.iter().zip(&self.slope).all(|(&b, &s)| fits(b, s))
            || !self
                .categories
                .iter()
                .all(|c| fits(c.base_bytes, c.slope_bytes))
        {
            return Err("parameterized replay size overflows at the top batch");
        }
        Ok(ParamReplay {
            ts_us: self.ts_us,
            block: self.block,
            is_alloc: self.is_alloc,
            base: self.base,
            slope: self.slope,
            num_blocks: self.num_blocks,
            batch_lo: self.batch_lo,
            batch_hi: self.batch_hi,
            filtered_blocks: self.filtered_blocks,
            adjusted_blocks: self.adjusted_blocks,
            unmatched_frees: self.unmatched_frees,
            categories: self.categories,
        })
    }
}

impl Deserialize for ParamReplay {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        ParamReplayRecord::from_value(value)?
            .check()
            .map_err(serde::Error::custom)
    }
}

/// Fits `(base, slope)` with `s(b) = base + slope·b` exact at both
/// endpoints, or `None` when no non-negative integral model exists.
fn affine(lo: (u64, u64), hi: (u64, u64)) -> Option<(u64, u64)> {
    let (b_lo, s_lo) = lo;
    let (b_hi, s_hi) = hi;
    let db = b_hi - b_lo;
    let ds = s_hi.checked_sub(s_lo)?;
    if ds % db != 0 {
        return None;
    }
    let slope = ds / db;
    let base = s_lo.checked_sub(slope.checked_mul(b_lo)?)?;
    Some((base, slope))
}

impl ParamReplay {
    /// Fits a parameterized replay from `anchors`: `(batch, analysis)`
    /// pairs, at least three, strictly increasing in batch. Each anchor
    /// is orchestrated with `orchestrator`; the endpoints pin the
    /// affine model and every interior anchor must reproduce exactly.
    pub fn fit(
        orchestrator: &Orchestrator,
        anchors: &[(usize, &AnalyzedTrace)],
    ) -> Result<ParamReplay, ParamRejection> {
        if anchors.len() < 3 {
            return Err(ParamRejection::TooFewAnchors);
        }
        if anchors.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(ParamRejection::UnorderedAnchors);
        }

        // Orchestrate every anchor, keeping its stats.
        let mut streams: Vec<(usize, EventBuffer, AnalysisStats)> = Vec::new();
        for &(batch, analyzed) in anchors {
            let buffer = orchestrator.orchestrate(analyzed);
            let stats = analysis_stats(analyzed, &buffer);
            streams.push((batch, buffer, stats));
        }

        // Structural identity across all anchors: dense block ids make
        // block identity comparable even though raw profiler ids
        // differ between batches.
        let (_, first, first_stats) = &streams[0];
        for (batch, buffer, stats) in &streams[1..] {
            let same = buffer.len() == first.len()
                && buffer.block == first.block
                && buffer.is_alloc == first.is_alloc
                && buffer.num_blocks == first.num_blocks
                && stats.filtered_blocks == first_stats.filtered_blocks
                && stats.adjusted_blocks == first_stats.adjusted_blocks
                && stats.unmatched_frees == first_stats.unmatched_frees
                && stats.categories.len() == first_stats.categories.len()
                && stats
                    .categories
                    .iter()
                    .zip(first_stats.categories.iter())
                    .all(|((name, count, _), (n0, c0, _))| name == n0 && count == c0);
            if !same {
                return Err(ParamRejection::StructureMismatch { batch: *batch });
            }
        }

        let (b_lo, lo, lo_stats) = &streams[0];
        let (b_hi, hi, _) = &streams[streams.len() - 1];

        // Per-event affine size model from the endpoints, validated
        // against every interior anchor.
        let mut base = Vec::with_capacity(lo.len());
        let mut slope = Vec::with_capacity(lo.len());
        for event in 0..lo.len() {
            let fitted = affine(
                (*b_lo as u64, lo.bytes[event]),
                (*b_hi as u64, hi.bytes[event]),
            )
            .ok_or(ParamRejection::NonAffineSize { event })?;
            for (batch, buffer, _) in &streams[1..streams.len() - 1] {
                if fitted.0 + fitted.1 * (*batch as u64) != buffer.bytes[event] {
                    return Err(ParamRejection::NonAffineSize { event });
                }
            }
            base.push(fitted.0);
            slope.push(fitted.1);
        }

        // Same model for per-category byte totals (reported in
        // `AnalysisStats`, so they must be exact too).
        let mut categories = Vec::with_capacity(lo_stats.categories.len());
        for (index, (name, count, lo_bytes)) in lo_stats.categories.iter().enumerate() {
            let hi_bytes = streams[streams.len() - 1].2.categories[index].2;
            let fitted =
                affine((*b_lo as u64, *lo_bytes), (*b_hi as u64, hi_bytes)).ok_or_else(|| {
                    ParamRejection::NonAffineCategory {
                        category: name.clone(),
                    }
                })?;
            for (batch, _, stats) in &streams[1..streams.len() - 1] {
                if fitted.0 + fitted.1 * (*batch as u64) != stats.categories[index].2 {
                    return Err(ParamRejection::NonAffineCategory {
                        category: name.clone(),
                    });
                }
            }
            categories.push(CategoryFit {
                name: name.clone(),
                count: *count,
                base_bytes: fitted.0,
                slope_bytes: fitted.1,
            });
        }

        Ok(ParamReplay {
            ts_us: lo.ts_us.clone(),
            block: lo.block.clone(),
            is_alloc: lo.is_alloc.clone(),
            base,
            slope,
            num_blocks: lo.num_blocks,
            batch_lo: *b_lo,
            batch_hi: *b_hi,
            filtered_blocks: lo_stats.filtered_blocks,
            adjusted_blocks: lo_stats.adjusted_blocks,
            unmatched_frees: lo_stats.unmatched_frees,
            categories,
        })
    }

    /// The inclusive batch range the fit is proven over.
    #[must_use]
    pub fn batch_range(&self) -> (usize, usize) {
        (self.batch_lo, self.batch_hi)
    }

    /// Whether `batch` falls inside the proven range.
    #[must_use]
    pub fn covers(&self, batch: usize) -> bool {
        (self.batch_lo..=self.batch_hi).contains(&batch)
    }

    /// Number of events in the parameterized stream.
    #[must_use]
    pub fn events(&self) -> usize {
        self.block.len()
    }

    /// Materializes the concrete event stream for `batch`.
    ///
    /// # Panics
    /// When `batch` is outside [`ParamReplay::batch_range`].
    #[must_use]
    pub fn materialize(&self, batch: usize) -> EventBuffer {
        assert!(
            self.covers(batch),
            "batch {batch} outside fitted range {:?}",
            self.batch_range()
        );
        let b = batch as u64;
        EventBuffer {
            ts_us: self.ts_us.clone(),
            block: self.block.clone(),
            bytes: self
                .base
                .iter()
                .zip(&self.slope)
                .map(|(&base, &slope)| base + slope * b)
                .collect(),
            is_alloc: self.is_alloc.clone(),
            num_blocks: self.num_blocks,
            filtered_blocks: self.filtered_blocks,
            adjusted_blocks: self.adjusted_blocks,
        }
    }

    /// The analysis-stage statistics for `batch`, reconstructed from
    /// the fitted per-category model (bit-identical to what the full
    /// pipeline reports, by fit validation).
    #[must_use]
    pub fn stats_for(&self, batch: usize) -> AnalysisStats {
        let b = batch as u64;
        AnalysisStats {
            categories: self
                .categories
                .iter()
                .map(|c| (c.name.clone(), c.count, c.base_bytes + c.slope_bytes * b))
                .collect(),
            filtered_blocks: self.filtered_blocks,
            adjusted_blocks: self.adjusted_blocks,
            unmatched_frees: self.unmatched_frees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::{profile_on_cpu, TrainJobSpec};

    fn analyzed(batch: usize) -> AnalyzedTrace {
        let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch)
            .with_iterations(2);
        let trace = profile_on_cpu(&spec);
        Analyzer::default().analyze(&trace).expect("analyze")
    }

    #[test]
    fn dense_ids_match_the_naive_numbering() {
        // Script-filtered real streams: the analysis's ids are sparse and
        // out of order. Renumbering the buffer's ids by first appearance
        // through a map must leave them as they are.
        let a = analyzed(2);
        for orchestrator in [
            Orchestrator::default(),
            Orchestrator {
                retime: false,
                filter_script: true,
            },
            Orchestrator {
                retime: true,
                filter_script: false,
            },
        ] {
            let buffer = orchestrator.orchestrate(&a);
            assert!(buffer.len() > 1000);
            let mut dense: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
            let naive: Vec<u32> = buffer
                .block
                .iter()
                .map(|&id| {
                    let next = dense.len() as u32;
                    *dense.entry(id).or_insert(next)
                })
                .collect();
            assert_eq!(buffer.block, naive);
            assert_eq!(buffer.num_blocks, dense.len());
            assert_eq!(2 * buffer.num_blocks, buffer.len());
        }
    }

    #[test]
    fn fit_materializes_anchor_batches_bit_identically() {
        let orchestrator = Orchestrator::default();
        let traces: Vec<(usize, AnalyzedTrace)> =
            [1, 4, 8].iter().map(|&b| (b, analyzed(b))).collect();
        let anchors: Vec<(usize, &AnalyzedTrace)> = traces.iter().map(|(b, t)| (*b, t)).collect();
        let param = ParamReplay::fit(&orchestrator, &anchors).expect("fit");
        assert_eq!(param.batch_range(), (1, 8));

        for (batch, trace) in &traces {
            let direct = orchestrator.orchestrate(trace);
            let materialized = param.materialize(*batch);
            assert_eq!(materialized.bytes, direct.bytes, "batch {batch}");
            assert_eq!(materialized.block, direct.block);
            assert_eq!(materialized.is_alloc, direct.is_alloc);
            assert_eq!(materialized.filtered_blocks, direct.filtered_blocks);
            assert_eq!(materialized.adjusted_blocks, direct.adjusted_blocks);
            let stats = analysis_stats(trace, &direct);
            assert_eq!(param.stats_for(*batch), stats, "stats at batch {batch}");
        }
    }

    #[test]
    fn interior_batches_match_a_fresh_profile() {
        let orchestrator = Orchestrator::default();
        let traces: Vec<(usize, AnalyzedTrace)> =
            [2, 5, 8].iter().map(|&b| (b, analyzed(b))).collect();
        let anchors: Vec<(usize, &AnalyzedTrace)> = traces.iter().map(|(b, t)| (*b, t)).collect();
        let param = ParamReplay::fit(&orchestrator, &anchors).expect("fit");

        // Batches 3..7 were never anchors: the affine model must still
        // reproduce the freshly profiled stream byte-for-byte.
        for batch in [3usize, 4, 6, 7] {
            let fresh = analyzed(batch);
            let direct = orchestrator.orchestrate(&fresh);
            assert_eq!(
                param.materialize(batch).bytes,
                direct.bytes,
                "batch {batch}"
            );
            assert_eq!(
                param.stats_for(batch),
                analysis_stats(&fresh, &direct),
                "stats at batch {batch}"
            );
        }
    }

    #[test]
    fn rejects_bad_anchor_sets() {
        let orchestrator = Orchestrator::default();
        let a1 = analyzed(1);
        let a4 = analyzed(4);
        assert_eq!(
            ParamReplay::fit(&orchestrator, &[(1, &a1), (4, &a4)]),
            Err(ParamRejection::TooFewAnchors)
        );
        assert_eq!(
            ParamReplay::fit(&orchestrator, &[(4, &a4), (1, &a1), (4, &a4)]),
            Err(ParamRejection::UnorderedAnchors)
        );
    }

    #[test]
    fn rejects_structurally_divergent_anchors() {
        // DistilGpt2 at batch 1 has a different op/block structure than
        // the CNN anchors: the fit must refuse, not approximate.
        let orchestrator = Orchestrator::default();
        let a1 = analyzed(1);
        let a4 = analyzed(4);
        let other = {
            let spec =
                TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 8).with_iterations(2);
            Analyzer::default()
                .analyze(&profile_on_cpu(&spec))
                .expect("analyze")
        };
        assert_eq!(
            ParamReplay::fit(&orchestrator, &[(1, &a1), (4, &a4), (8, &other)]),
            Err(ParamRejection::StructureMismatch { batch: 8 })
        );
    }

    #[test]
    fn materialize_outside_range_panics() {
        let orchestrator = Orchestrator::default();
        let traces: Vec<(usize, AnalyzedTrace)> =
            [1, 2, 4].iter().map(|&b| (b, analyzed(b))).collect();
        let anchors: Vec<(usize, &AnalyzedTrace)> = traces.iter().map(|(b, t)| (*b, t)).collect();
        let param = ParamReplay::fit(&orchestrator, &anchors).expect("fit");
        assert!(param.covers(3));
        assert!(!param.covers(5));
        let result = std::panic::catch_unwind(|| param.materialize(5));
        assert!(result.is_err());
    }

    /// `value` with `field` of the top-level object changed by `edit`.
    fn edited(
        value: &serde::Value,
        field: &str,
        edit: impl FnOnce(&mut serde::Value),
    ) -> serde::Value {
        let mut value = value.clone();
        let serde::Value::Object(entries) = &mut value else {
            panic!("a replay serializes to an object");
        };
        let (_, slot) = entries
            .iter_mut()
            .find(|(name, _)| name == field)
            .expect("field present");
        edit(slot);
        value
    }

    #[test]
    fn deserializing_rejects_records_a_replay_cannot_run() {
        use serde::{Deserialize, Serialize, Value};
        let orchestrator = Orchestrator::default();
        let traces: Vec<(usize, AnalyzedTrace)> =
            [1, 2, 4].iter().map(|&b| (b, analyzed(b))).collect();
        let anchors: Vec<(usize, &AnalyzedTrace)> = traces.iter().map(|(b, t)| (*b, t)).collect();
        let param = ParamReplay::fit(&orchestrator, &anchors).expect("fit");
        let value = param.to_value();
        assert_eq!(ParamReplay::from_value(&value).expect("round-trips"), param);

        let set = |v: u64| move |slot: &mut Value| *slot = Value::U64(v);
        let first = |v: u64| {
            move |slot: &mut Value| {
                let Value::Array(items) = slot else {
                    panic!("column")
                };
                items[0] = Value::U64(v);
            }
        };
        let corrupt = [
            edited(&value, "num_blocks", set(1)),
            edited(&value, "num_blocks", set(1 << 50)),
            edited(&value, "ts_us", |slot| {
                let Value::Array(items) = slot else {
                    panic!("column")
                };
                items.pop();
            }),
            edited(&value, "batch_lo", set(5)),
            edited(&value, "slope", first(u64::MAX / 2)),
            edited(&edited(&value, "slope", first(1)), "base", first(u64::MAX)),
            edited(&value, "categories", |slot| {
                let Value::Array(items) = slot else {
                    panic!("categories")
                };
                let Value::Object(fields) = &mut items[0] else {
                    panic!("category")
                };
                for (name, field) in fields.iter_mut() {
                    if name == "slope_bytes" {
                        *field = Value::U64(u64::MAX / 3);
                    }
                }
            }),
        ];
        for (i, record) in corrupt.iter().enumerate() {
            assert!(
                ParamReplay::from_value(record).is_err(),
                "corruption {i} accepted"
            );
        }
    }

    #[test]
    fn affine_fit_edge_cases() {
        assert_eq!(affine((1, 10), (5, 10)), Some((10, 0))); // constant
        assert_eq!(affine((1, 10), (5, 30)), Some((5, 5))); // slope 5
        assert_eq!(affine((1, 10), (5, 13)), None); // fractional slope
        assert_eq!(affine((1, 10), (5, 6)), None); // shrinking
        assert_eq!(affine((4, 2), (8, 6)), None); // negative base
    }
}

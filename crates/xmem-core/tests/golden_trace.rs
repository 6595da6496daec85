//! Golden-trace regression test.
//!
//! The fixture is a real `profile_on_cpu` trace (MobileNetV3-Small, Adam,
//! batch 2, 2 iterations) serialized through the `xmem-trace` JSON format
//! and committed. The Analyzer's per-category block counts and byte totals
//! over that trace are contract: refactors of the trace format, the
//! lifecycle pairing, the window reconstruction or the classifier must not
//! silently shift them. Regenerate the fixture (and these constants) only
//! for a *deliberate* semantic change:
//!
//! ```text
//! cargo run --bin xmem-cli -- profile --model MobeNetV3Small --optimizer Adam \
//!     --batch 2 --iterations 2 --out crates/xmem-core/tests/fixtures/...
//! ```

use xmem_core::{Analyzer, BlockCategory};
use xmem_trace::Trace;

const FIXTURE: &str = include_str!("fixtures/mobilenet_v3_small_adam_b2.trace.json");

/// `(category, block count, total bytes)` as produced at fixture capture.
const GOLDEN_CATEGORIES: &[(BlockCategory, usize, u64)] = &[
    (BlockCategory::Parameter, 210, 10_219_872),
    (BlockCategory::BatchData, 4, 49_184),
    (BlockCategory::Activation, 302, 1_291_144),
    (BlockCategory::Gradient, 284, 20_342_848),
    (BlockCategory::BackwardTemp, 228, 1_174_144),
    (BlockCategory::OptimizerState, 284, 20_342_848),
    (BlockCategory::OptimizerScratch, 284, 20_342_848),
    (BlockCategory::Workspace, 562, 20_410_768),
    (BlockCategory::Script, 26, 21_495_848),
];

const GOLDEN_EVENT_COUNT: usize = 4587;

#[test]
fn fixture_parses_to_the_captured_event_count() {
    let trace = Trace::from_json_str(FIXTURE).expect("fixture parses");
    assert_eq!(trace.events().len(), GOLDEN_EVENT_COUNT);
}

#[test]
fn analyzer_category_counts_and_bytes_are_stable() {
    let trace = Trace::from_json_str(FIXTURE).expect("fixture parses");
    let analyzed = Analyzer::new().analyze(&trace).expect("fixture analyzes");
    for &(category, count, bytes) in GOLDEN_CATEGORIES {
        assert_eq!(
            analyzed.count(category),
            count,
            "block count drifted for {category:?}"
        );
        assert_eq!(
            analyzed.bytes(category),
            bytes,
            "byte total drifted for {category:?}"
        );
    }
    assert_eq!(
        analyzed.lifecycle_stats.unmatched_frees, 0,
        "the captured trace pairs every free"
    );
}

#[test]
fn fixture_roundtrips_through_the_json_writer() {
    let trace = Trace::from_json_str(FIXTURE).expect("fixture parses");
    let rewritten = trace.to_json_string().expect("fixture serializes");
    let back = Trace::from_json_str(&rewritten).expect("rewritten fixture parses");
    assert_eq!(back.events(), trace.events());
}

#[test]
fn fixture_is_rewritten_byte_for_byte() {
    let trace = Trace::from_json_str(FIXTURE).expect("fixture parses");
    let rewritten = trace.to_json_string().expect("fixture serializes");
    assert_eq!(rewritten.len(), FIXTURE.len(), "rewritten length drifted");
    assert!(
        rewritten == FIXTURE,
        "the writer no longer reproduces the fixture"
    );
}

#[test]
fn fixture_stores_each_distinct_name_once() {
    let trace = Trace::from_json_str(FIXTURE).expect("fixture parses");
    let distinct: std::collections::BTreeSet<&str> =
        trace.events().iter().map(|e| trace.name_of(e)).collect();
    assert_eq!(trace.names().len(), distinct.len());
    assert!(trace.names().len() * 50 < trace.len(), "a small vocabulary");
}

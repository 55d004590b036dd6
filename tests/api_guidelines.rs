//! API-guideline conformance checks: thread-safety markers, common traits,
//! and error-type behaviour (C-SEND-SYNC, C-COMMON-TRAITS, C-GOOD-ERR).

use opinion_dynamics::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<OpinionCounts>();
    assert_send_sync::<Simulation<ThreeMajority>>();
    assert_send_sync::<Simulation<TwoChoices>>();
    assert_send_sync::<AsyncSimulation<ThreeMajority>>();
    assert_send_sync::<GraphSimulation<ThreeMajority, CompleteWithSelfLoops>>();
    assert_send_sync::<StoppingTracker>();
    assert_send_sync::<opinion_dynamics::sampling::AliasTable>();
    assert_send_sync::<opinion_dynamics::sampling::FenwickSampler>();
    assert_send_sync::<opinion_dynamics::stats::RunningStats>();
    assert_send_sync::<opinion_dynamics::graphs::CsrGraph>();
}

#[test]
fn error_types_implement_error_send_sync() {
    assert_error::<opinion_dynamics::core::ConfigError>();
    assert_error::<opinion_dynamics::graphs::GraphBuildError>();
}

#[test]
fn error_messages_are_lowercase_without_trailing_punctuation() {
    let messages = [
        opinion_dynamics::core::ConfigError::NoOpinions.to_string(),
        opinion_dynamics::core::ConfigError::ZeroPopulation.to_string(),
        opinion_dynamics::graphs::GraphBuildError::RetriesExhausted.to_string(),
    ];
    for m in messages {
        let first = m.chars().next().unwrap();
        assert!(first.is_lowercase(), "message should start lowercase: {m}");
        assert!(
            !m.ends_with('.'),
            "message should not end with a period: {m}"
        );
    }
}

#[test]
fn common_traits_are_derived() {
    // Clone + PartialEq + Debug on the central data structure.
    let a = OpinionCounts::balanced(10, 2).unwrap();
    let b = a.clone();
    assert_eq!(a, b);
    assert!(format!("{a:?}").contains("OpinionCounts"));
    // Display is informative.
    assert!(a.to_string().contains("n=10"));
    // Copy-able protocol markers.
    let p = ThreeMajority;
    let q = p;
    let _ = (p, q);
}

#[test]
fn configurations_work_as_hash_keys() {
    use std::collections::HashSet;
    let mut set = HashSet::new();
    set.insert(OpinionCounts::balanced(10, 2).unwrap());
    set.insert(OpinionCounts::balanced(10, 2).unwrap());
    set.insert(OpinionCounts::balanced(12, 3).unwrap());
    assert_eq!(set.len(), 2);
}

//! The retired `resolver` label of the weights block: every value runs
//! the one weighted resolver with bit-identical job results, including
//! `prefix-u16` specs whose row totals pass `2¹⁶`; the label still
//! round-trips and parses strictly, and specs that never name it keep
//! their content hashes.

use od_runtime::{
    run_job_simple, GraphFamily, GraphSpec, InitialSpec, JobSpec, WeightResolver, WeightScheme,
    WeightsSpec,
};

fn weighted_spec(scheme: WeightScheme, resolver: WeightResolver) -> JobSpec {
    JobSpec {
        max_rounds: 20_000,
        shard_size: 3,
        graph: Some(GraphSpec {
            weights: Some(WeightsSpec {
                scheme,
                seed: Some(99),
                resolver,
            }),
            ..GraphSpec::new(GraphFamily::RandomRegular { d: 6 })
        }),
        ..JobSpec::new(
            "resolver differential",
            "three-majority",
            InitialSpec::Counts(vec![130, 70]),
            6,
            2024,
        )
    }
}

#[test]
fn all_resolvers_produce_identical_results() {
    let scheme = WeightScheme::Random { min: 1, max: 40 };
    let baseline = run_job_simple(&weighted_spec(scheme.clone(), WeightResolver::Alias))
        .unwrap()
        .summary;
    for resolver in [WeightResolver::Prefix, WeightResolver::Prefix16] {
        let summary = run_job_simple(&weighted_spec(scheme.clone(), resolver))
            .unwrap()
            .summary;
        assert_eq!(
            summary.to_json().to_string_compact(),
            baseline.to_json().to_string_compact(),
            "resolver {resolver:?} diverged from alias"
        );
    }
}

#[test]
fn prefix_u16_rows_past_u16_run_like_alias() {
    // Each weight fits u16, but a degree-6 row of 20 000s sums to
    // 120 000 > u16::MAX. The label puts no cap on row totals: the job
    // runs and its summary bytes equal the alias spec's.
    let scheme = WeightScheme::Uniform { value: 20_000 };
    let u16_label = run_job_simple(&weighted_spec(scheme.clone(), WeightResolver::Prefix16))
        .expect("prefix-u16 runs past u16 row totals")
        .summary;
    let alias = run_job_simple(&weighted_spec(scheme, WeightResolver::Alias))
        .unwrap()
        .summary;
    assert_eq!(
        u16_label.to_json().to_string_compact(),
        alias.to_json().to_string_compact()
    );
}

#[test]
fn weights_past_u16_validate_under_the_prefix_u16_label() {
    let spec = weighted_spec(
        WeightScheme::Uniform {
            value: u32::from(u16::MAX) + 1,
        },
        WeightResolver::Prefix16,
    );
    if let Err(e) = spec.validate() {
        panic!("prefix-u16 must not cap weights: {e}");
    }
}

#[test]
fn resolver_roundtrips_and_default_keeps_the_hash() {
    for resolver in [
        WeightResolver::Alias,
        WeightResolver::Prefix,
        WeightResolver::Prefix16,
    ] {
        let spec = weighted_spec(WeightScheme::Random { min: 1, max: 40 }, resolver);
        let text = spec.to_json().to_string_pretty();
        let back = JobSpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec, "roundtrip failed for {text}");
    }
    // The default resolver serialises nothing: a spec that never names
    // the knob renders (and therefore hashes) exactly as before the
    // knob existed.
    let default_spec = weighted_spec(
        WeightScheme::Random { min: 1, max: 40 },
        WeightResolver::Alias,
    );
    assert!(!default_spec
        .to_json()
        .to_string_compact()
        .contains("\"resolver\""));
    // Non-default resolvers are a different job: they must re-hash.
    let prefix_spec = weighted_spec(
        WeightScheme::Random { min: 1, max: 40 },
        WeightResolver::Prefix,
    );
    assert_ne!(default_spec.content_hash(), prefix_spec.content_hash());
}

#[test]
fn unknown_resolver_is_a_typed_parse_error() {
    let text = r#"{
  "name": "bad resolver",
  "protocol": {"name": "three-majority"},
  "initial": {"kind": "counts", "counts": [130, 70]},
  "trials": 6,
  "master_seed": 1,
  "max_rounds": 1000,
  "shard_size": 3,
  "graph": {
    "family": "random-regular",
    "d": 6,
    "weights": {"scheme": "uniform", "value": 2, "resolver": "fenwick"}
  }
}"#;
    let err = JobSpec::from_json_text(text).expect_err("unknown resolver must fail");
    let message = err.to_string();
    assert!(
        message.contains("resolver") && message.contains("prefix-u16"),
        "error must list the valid resolvers: {message}"
    );
}

//! Graph-scenario jobs through the runtime: spec round-trips, executor
//! equivalence with the direct engine, shard invariance, and validation.

use od_core::protocol::ThreeMajority;
use od_core::GraphSimulation;
use od_graphs::CompleteWithSelfLoops;
use od_runtime::{
    run_job, run_job_simple, Checkpoint, ExecutionMode, GraphFamily, GraphSpec, InitialSpec,
    JobSpec, OpinionAssignment, RunOptions, RuntimeError, StopRule, TemporalSchedule, TemporalSpec,
    WeightResolver, WeightScheme, WeightsSpec,
};
use od_sampling::seeds::derive_seed;

fn graph_spec(family: GraphFamily) -> JobSpec {
    JobSpec {
        max_rounds: 20_000,
        shard_size: 3,
        graph: Some(GraphSpec::new(family)),
        ..JobSpec::new(
            "graph smoke",
            "three-majority",
            InitialSpec::Counts(vec![140, 60]),
            8,
            777,
        )
    }
}

#[test]
fn every_family_roundtrips_through_json() {
    let families = [
        GraphFamily::Complete,
        GraphFamily::ErdosRenyi {
            p: 0.05,
            backbone: false,
        },
        GraphFamily::ErdosRenyi {
            p: 0.0005,
            backbone: true,
        },
        GraphFamily::RandomRegular { d: 8 },
        GraphFamily::StochasticBlockModel {
            p_in: 0.2,
            p_out: 0.01,
        },
        GraphFamily::Cycle,
        GraphFamily::Torus2d {
            width: 10,
            height: 20,
        },
        GraphFamily::Barbell,
        GraphFamily::CorePeriphery { core: 10 },
        GraphFamily::Star,
    ];
    for family in families {
        let mut spec = graph_spec(family);
        spec.graph = Some(GraphSpec {
            seed: Some(12345),
            assignment: OpinionAssignment::Blocks,
            ..spec.graph.unwrap()
        });
        let text = spec.to_json().to_string_pretty();
        let back = JobSpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec, "roundtrip failed for {text}");
        assert_eq!(back.content_hash(), spec.content_hash());
    }
}

#[test]
fn graph_field_changes_the_content_hash() {
    let base = graph_spec(GraphFamily::RandomRegular { d: 8 });
    let mut other = base.clone();
    other.graph = Some(GraphSpec::new(GraphFamily::RandomRegular { d: 6 }));
    assert_ne!(base.content_hash(), other.content_hash());
    let mut population = base.clone();
    population.graph = None;
    assert_ne!(base.content_hash(), population.content_hash());
}

#[test]
fn graph_hashes_are_salted_with_the_engine_generation() {
    // A graph spec's content hash must not equal the bare FNV of its
    // canonical JSON: the engine tag is keyed in, so checkpoints written
    // by an older engine generation (different sample paths) refuse to
    // resume instead of silently mixing shard results.
    let spec = graph_spec(GraphFamily::Cycle);
    let bare = {
        let canonical = spec.to_json().to_string_compact();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    };
    assert_ne!(spec.content_hash(), bare);

    // Population jobs are untouched by the graph engine generation.
    let mut population = spec;
    population.graph = None;
    let bare = {
        let canonical = population.to_json().to_string_compact();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    };
    assert_eq!(population.content_hash(), bare);
}

#[test]
fn graph_job_reaches_consensus_on_expander() {
    let report = run_job_simple(&graph_spec(GraphFamily::RandomRegular { d: 8 })).unwrap();
    assert_eq!(report.summary.trials, 8);
    assert_eq!(report.summary.consensus, 8);
    // 70/30 bias: the plurality should win essentially always.
    assert!(report.summary.winners.count(0) >= 7);
}

#[test]
fn graph_job_matches_direct_engine_bit_for_bit() {
    // Complete-graph family: graph construction is deterministic, so the
    // runtime result must equal a hand-rolled batched-engine loop
    // exactly (the executor dispatches the batched pipeline).
    let spec = graph_spec(GraphFamily::Complete);
    let report = run_job_simple(&spec).unwrap();
    let n = 200usize;
    // Striped layout of [140, 60]: opinion 1 interleaves until exhausted.
    let initial = spec.initial.build().unwrap();
    let mut remaining = initial.counts().to_vec();
    let mut opinions: Vec<u32> = Vec::with_capacity(n);
    while opinions.len() < n {
        for (j, slot) in remaining.iter_mut().enumerate() {
            if *slot > 0 {
                *slot -= 1;
                opinions.push(j as u32);
            }
        }
    }
    let sim = GraphSimulation::new(ThreeMajority, CompleteWithSelfLoops::new(n))
        .with_max_rounds(spec.max_rounds);
    let mut direct_rounds = Vec::new();
    let mut direct_winners = Vec::new();
    for trial in 0..spec.trials {
        let out = sim.run_batched(&opinions, derive_seed(spec.master_seed, trial));
        direct_rounds.push(out.rounds);
        direct_winners.push(out.winner.unwrap() as u64);
    }
    assert_eq!(report.summary.consensus, spec.trials);
    assert_eq!(
        report.summary.rounds.sum(),
        direct_rounds.iter().map(|&r| u128::from(r)).sum::<u128>()
    );
    for winner in direct_winners {
        assert!(report.summary.winners.count(winner) > 0);
    }
}

#[test]
fn shard_size_does_not_change_graph_summaries() {
    let mut summaries = vec![];
    for shard_size in [1u64, 3, 8] {
        let spec = JobSpec {
            shard_size,
            ..graph_spec(GraphFamily::RandomRegular { d: 6 })
        };
        summaries.push(run_job_simple(&spec).unwrap().summary);
    }
    assert_eq!(summaries[0], summaries[1]);
    assert_eq!(summaries[0], summaries[2]);
}

#[test]
fn graph_jobs_support_threshold_stops() {
    let spec = JobSpec {
        stop: StopRule::MaxFraction(0.9),
        ..graph_spec(GraphFamily::RandomRegular { d: 8 })
    };
    let report = run_job_simple(&spec).unwrap();
    // Every trial either crossed the threshold early or consolidated in
    // one hop past it; either way nothing capped.
    assert_eq!(report.summary.capped, 0);
    assert!(report.summary.stopped > 0, "threshold should fire first");
}

#[test]
fn graph_jobs_checkpoint_and_resume() {
    let dir = std::env::temp_dir().join("od_graph_job_ckpt_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("job.checkpoint.json");
    let spec = graph_spec(GraphFamily::Cycle);
    let options = RunOptions {
        checkpoint_path: Some(checkpoint.clone()),
        ..RunOptions::default()
    };
    let first = run_job(&spec, &options).unwrap();
    assert_eq!(first.resumed_shards, 0);
    let second = run_job(&spec, &options).unwrap();
    assert_eq!(second.resumed_shards, second.total_shards);
    assert_eq!(first.summary, second.summary);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_graph_specs_are_rejected() {
    // Infeasible regular graph (odd n * d).
    let mut spec = graph_spec(GraphFamily::RandomRegular { d: 3 });
    spec.initial = InitialSpec::Counts(vec![100, 101]);
    assert!(spec.validate().is_err());

    // Torus dimensions must multiply to n.
    let spec = graph_spec(GraphFamily::Torus2d {
        width: 10,
        height: 10,
    });
    assert!(spec.validate().is_err(), "100 != 200");

    // Graph + adversary is unsupported.
    let mut spec = graph_spec(GraphFamily::Cycle);
    spec.adversary = Some(od_runtime::AdversarySpec {
        kind: "boost-runner-up".to_string(),
        budget: 3,
    });
    assert!(spec.validate().is_err());

    // Graph + compacted mode is unsupported.
    let mut spec = graph_spec(GraphFamily::Cycle);
    spec.mode = ExecutionMode::Compacted;
    assert!(spec.validate().is_err());

    // Unknown family name fails at parse time.
    let text = r#"{
        "protocol": {"name": "three-majority"},
        "initial": {"kind": "balanced", "n": 100, "k": 4},
        "trials": 2,
        "master_seed": 1,
        "graph": {"family": "hypercube"}
    }"#;
    assert!(JobSpec::from_json_text(text).is_err());

    // Misspelled family parameter fails loudly.
    let text = r#"{
        "protocol": {"name": "three-majority"},
        "initial": {"kind": "balanced", "n": 100, "k": 4},
        "trials": 2,
        "master_seed": 1,
        "graph": {"family": "erdos-renyi", "prob": 0.1}
    }"#;
    assert!(JobSpec::from_json_text(text).is_err());
}

#[test]
fn sparse_erdos_renyi_needs_the_backbone() {
    // At mean degree ~2 on n=200, isolated vertices appear w.h.p.: the
    // bare family is rejected with actionable advice, the backbone
    // variant runs.
    let bare = JobSpec {
        trials: 2,
        ..graph_spec(GraphFamily::ErdosRenyi {
            p: 0.01,
            backbone: false,
        })
    };
    // (If the seed happens to produce no isolated vertex the bare job
    // legitimately succeeds, so only the error content is asserted.)
    if let Err(e) = run_job_simple(&bare) {
        assert!(e.to_string().contains("backbone"), "{e}");
    }
    let with_backbone = JobSpec {
        trials: 2,
        ..graph_spec(GraphFamily::ErdosRenyi {
            p: 0.01,
            backbone: true,
        })
    };
    let report = run_job_simple(&with_backbone).unwrap();
    assert_eq!(report.summary.trials, 2);
    assert_eq!(report.summary.capped, 0);
}

#[test]
fn fixed_opinion_space_protocols_must_match_initial_k() {
    // noisy-three-majority with params.k = 5 against a k = 3 start used
    // to pass validation and blow up (or record out-of-range winners)
    // mid-trial; it must be a typed spec error — for graph jobs and
    // population jobs alike.
    let text = r#"{
        "protocol": {"name": "noisy-three-majority", "params": {"epsilon": 0.1, "k": 5}},
        "initial": {"kind": "balanced", "n": 99, "k": 3},
        "trials": 2,
        "master_seed": 1,
        "graph": {"family": "cycle"},
        "stop": {"kind": "max-fraction", "threshold": 0.9}
    }"#;
    let spec = JobSpec::from_json_text(text).unwrap();
    let err = spec.validate().err().expect("k mismatch must be rejected");
    assert!(err.to_string().contains("opinion slots"), "{err}");
    let mut population = spec.clone();
    population.graph = None;
    assert!(population.validate().is_err());

    // undecided needs k + 1 slots (the blank state).
    let text = r#"{
        "protocol": {"name": "undecided", "params": {"k": 3}},
        "initial": {"kind": "balanced", "n": 100, "k": 3},
        "trials": 2,
        "master_seed": 1
    }"#;
    assert!(JobSpec::from_json_text(text).unwrap().validate().is_err());
    let text = r#"{
        "protocol": {"name": "undecided", "params": {"k": 3}},
        "initial": {"kind": "counts", "counts": [40, 30, 20, 10]},
        "trials": 2,
        "master_seed": 1
    }"#;
    assert!(JobSpec::from_json_text(text).unwrap().validate().is_ok());
}

fn weighted_spec(scheme: WeightScheme) -> JobSpec {
    let mut spec = graph_spec(GraphFamily::RandomRegular { d: 8 });
    spec.graph = Some(GraphSpec {
        weights: Some(WeightsSpec {
            scheme,
            seed: None,
            resolver: WeightResolver::Alias,
        }),
        ..spec.graph.unwrap()
    });
    spec
}

fn temporal_spec(schedule: TemporalSchedule, period: u64) -> JobSpec {
    let mut spec = graph_spec(GraphFamily::RandomRegular { d: 8 });
    spec.graph = Some(GraphSpec {
        temporal: Some(TemporalSpec { schedule, period }),
        ..spec.graph.unwrap()
    });
    spec
}

#[test]
fn weighted_and_temporal_specs_roundtrip_through_json() {
    let mut specs = vec![
        weighted_spec(WeightScheme::Uniform { value: 3 }),
        weighted_spec(WeightScheme::Random { min: 1, max: 9 }),
        temporal_spec(
            TemporalSchedule::Snapshots(vec![
                GraphFamily::Cycle,
                GraphFamily::ErdosRenyi {
                    p: 0.05,
                    backbone: true,
                },
            ]),
            7,
        ),
        temporal_spec(TemporalSchedule::Rewire, 3),
    ];
    // Weighted with an explicit weight seed.
    specs.push({
        let mut spec = weighted_spec(WeightScheme::Random { min: 0, max: 4 });
        spec.graph = Some(GraphSpec {
            weights: Some(WeightsSpec {
                scheme: WeightScheme::Random { min: 0, max: 4 },
                seed: Some(99),
                resolver: WeightResolver::Alias,
            }),
            ..spec.graph.unwrap()
        });
        spec
    });
    // Proportions + per-block assignments on community families.
    specs.push({
        let mut spec = graph_spec(GraphFamily::StochasticBlockModel {
            p_in: 0.4,
            p_out: 0.05,
        });
        spec.graph = Some(GraphSpec {
            assignment: OpinionAssignment::Proportions(vec![vec![0.9, 0.1], vec![0.1, 0.9]]),
            ..spec.graph.unwrap()
        });
        spec
    });
    specs.push({
        let mut spec = graph_spec(GraphFamily::Barbell);
        spec.graph = Some(GraphSpec {
            assignment: OpinionAssignment::PerBlock(vec![0, 1]),
            ..spec.graph.unwrap()
        });
        spec
    });
    for spec in specs {
        let text = spec.to_json().to_string_pretty();
        let back = JobSpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec, "roundtrip failed for {text}");
        assert_eq!(back.content_hash(), spec.content_hash());
        spec.validate().unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

#[test]
fn weighted_and_temporal_hashes_are_salted_per_engine() {
    // The weights/temporal sub-blocks change the JSON (hence the hash),
    // and the engine tags are keyed in on top, so a future change to the
    // weighted resolution or the epoch seed derivation can invalidate
    // old checkpoints by bumping one tag.
    let plain = graph_spec(GraphFamily::RandomRegular { d: 8 });
    let weighted = weighted_spec(WeightScheme::Uniform { value: 1 });
    let temporal = temporal_spec(TemporalSchedule::Rewire, 3);
    assert_ne!(plain.content_hash(), weighted.content_hash());
    assert_ne!(plain.content_hash(), temporal.content_hash());
    assert_ne!(weighted.content_hash(), temporal.content_hash());
}

#[test]
fn unit_weight_jobs_match_unweighted_jobs_exactly() {
    // weights {uniform, value 1} draws the very same sample paths as the
    // unweighted batched engine, so the merged summaries must be equal
    // (the specs still hash differently — different checkpoint spaces).
    let plain = run_job_simple(&graph_spec(GraphFamily::RandomRegular { d: 8 })).unwrap();
    let weighted = run_job_simple(&weighted_spec(WeightScheme::Uniform { value: 1 })).unwrap();
    assert_eq!(plain.summary, weighted.summary);
}

#[test]
fn weighted_jobs_run_and_are_shard_invariant() {
    let mut summaries = vec![];
    for shard_size in [1u64, 3, 8] {
        let spec = JobSpec {
            shard_size,
            ..weighted_spec(WeightScheme::Random { min: 1, max: 8 })
        };
        summaries.push(run_job_simple(&spec).unwrap().summary);
    }
    assert_eq!(summaries[0], summaries[1]);
    assert_eq!(summaries[0], summaries[2]);
    assert_eq!(summaries[0].trials, 8);
    assert_eq!(summaries[0].consensus, 8, "70/30 start should consolidate");
}

#[test]
fn temporal_jobs_run_and_are_shard_invariant() {
    for schedule in [
        TemporalSchedule::Snapshots(vec![GraphFamily::Cycle]),
        TemporalSchedule::Rewire,
    ] {
        let mut summaries = vec![];
        for shard_size in [1u64, 3, 8] {
            let spec = JobSpec {
                shard_size,
                ..temporal_spec(schedule.clone(), 2)
            };
            summaries.push(run_job_simple(&spec).unwrap().summary);
        }
        assert_eq!(summaries[0], summaries[1], "{schedule:?}");
        assert_eq!(summaries[0], summaries[2], "{schedule:?}");
        assert_eq!(summaries[0].trials, 8);
    }
}

#[test]
fn temporal_jobs_resume_mid_schedule_bit_for_bit() {
    // Kill-resume: run the full job once (the uninterrupted reference),
    // then simulate a mid-job kill by dropping half the completed shards
    // from the checkpoint and resuming — the merged summary must be
    // byte-identical to the uninterrupted run.
    let dir = std::env::temp_dir().join(format!("od_temporal_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint_path = dir.join("job.checkpoint.json");
    let spec = temporal_spec(
        TemporalSchedule::Snapshots(vec![GraphFamily::ErdosRenyi {
            p: 0.05,
            backbone: true,
        }]),
        3,
    );
    let options = RunOptions {
        checkpoint_path: Some(checkpoint_path.clone()),
        ..RunOptions::default()
    };
    let uninterrupted = run_job(&spec, &options).unwrap();
    assert_eq!(uninterrupted.resumed_shards, 0);
    let reference_bytes = uninterrupted.summary.to_json().to_string_compact();

    // "Kill" mid-schedule: keep only the even shards.
    let mut checkpoint = Checkpoint::load(&checkpoint_path).unwrap().unwrap();
    let total = checkpoint.shards.len() as u64;
    checkpoint.shards.retain(|&index, _| index % 2 == 0);
    let kept = checkpoint.shards.len() as u64;
    assert!(kept < total, "test must actually drop shards");
    checkpoint.save(&checkpoint_path).unwrap();

    let resumed = run_job(&spec, &options).unwrap();
    assert_eq!(resumed.resumed_shards, kept);
    assert_eq!(resumed.completed_shards, total);
    assert_eq!(resumed.summary, uninterrupted.summary);
    assert_eq!(
        resumed.summary.to_json().to_string_compact(),
        reference_bytes,
        "resumed summary must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_generation_temporal_checkpoints_refuse_to_resume() {
    // A checkpoint whose spec hash carries a different engine generation
    // (here simulated by tampering the recorded hash) must be refused
    // with a typed CheckpointMismatch, not silently merged.
    let dir = std::env::temp_dir().join(format!("od_temporal_stale_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint_path = dir.join("job.checkpoint.json");
    let spec = temporal_spec(TemporalSchedule::Rewire, 2);
    let options = RunOptions {
        checkpoint_path: Some(checkpoint_path.clone()),
        ..RunOptions::default()
    };
    run_job(&spec, &options).unwrap();

    let mut checkpoint = Checkpoint::load(&checkpoint_path).unwrap().unwrap();
    // An older engine generation would have hashed the same canonical
    // JSON under a different tag — any hash difference must refuse.
    checkpoint.spec_hash = format!("{}0", &checkpoint.spec_hash[..15]);
    checkpoint.save(&checkpoint_path).unwrap();
    match run_job(&spec, &options) {
        Err(RuntimeError::CheckpointMismatch { found, expected }) => {
            assert_ne!(found, expected);
        }
        other => panic!("stale checkpoint must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degenerate_weight_schemes_are_typed_errors() {
    // Zero-weight-only vertices must be caught by validation (statically
    // knowable schemes) or graph construction (seed-dependent), never as
    // an executor panic.
    let all_zero = weighted_spec(WeightScheme::Uniform { value: 0 });
    let err = all_zero.validate().err().expect("value 0 must be rejected");
    assert!(err.to_string().contains("zero-weight"), "{err}");

    let zero_max = weighted_spec(WeightScheme::Random { min: 0, max: 0 });
    let err = zero_max.validate().err().expect("max 0 must be rejected");
    assert!(err.to_string().contains("zero-weight"), "{err}");

    let inverted = weighted_spec(WeightScheme::Random { min: 5, max: 2 });
    let err = inverted
        .validate()
        .err()
        .expect("min > max must be rejected");
    assert!(err.to_string().contains("min"), "{err}");

    // Weights on the implicit complete graph have no edge list to attach
    // to.
    let mut complete = graph_spec(GraphFamily::Complete);
    complete.graph = Some(GraphSpec {
        weights: Some(WeightsSpec {
            scheme: WeightScheme::Uniform { value: 1 },
            seed: None,
            resolver: WeightResolver::Alias,
        }),
        ..complete.graph.unwrap()
    });
    assert!(complete.validate().is_err());

    // min = 0 with a positive max is statically fine but a particular
    // seed could still zero out some vertex's whole row; that surfaces
    // as a typed error from the executor, not a panic. (On a d-regular
    // graph with max 1 the chance of an all-zero row is (1/2)^8 per
    // vertex — likely to hit at n = 200; accept either a clean run or
    // the typed error.)
    let risky = weighted_spec(WeightScheme::Random { min: 0, max: 1 });
    match run_job_simple(&risky) {
        Ok(report) => assert_eq!(report.summary.trials, 8),
        Err(e) => assert!(e.to_string().contains("zero-weight"), "{e}"),
    }
}

#[test]
fn empty_and_malformed_temporal_schedules_are_typed_errors() {
    let empty = temporal_spec(TemporalSchedule::Snapshots(vec![]), 2);
    let err = empty.validate().err().expect("empty schedule must fail");
    assert!(err.to_string().contains("at least one snapshot"), "{err}");

    let zero_period = temporal_spec(TemporalSchedule::Rewire, 0);
    let err = zero_period.validate().err().expect("period 0 must fail");
    assert!(err.to_string().contains("period"), "{err}");

    // Rewiring a deterministic family would regenerate the identical
    // graph every epoch — still a typed error (the repair pass lifted
    // the restriction only for random families).
    for family in [GraphFamily::Star, GraphFamily::Cycle, GraphFamily::Barbell] {
        let mut deterministic = temporal_spec(TemporalSchedule::Rewire, 2);
        deterministic.graph = Some(GraphSpec {
            family,
            ..deterministic.graph.unwrap()
        });
        let err = deterministic
            .validate()
            .err()
            .expect("deterministic rewire must fail");
        assert!(err.to_string().contains("identical graph"), "{err}");
    }

    // A snapshot family infeasible at this n fails validation with its
    // index in the message.
    let bad_snapshot = temporal_spec(
        TemporalSchedule::Snapshots(vec![GraphFamily::Torus2d {
            width: 10,
            height: 10,
        }]),
        2,
    );
    let err = bad_snapshot
        .validate()
        .err()
        .expect("bad snapshot must fail");
    assert!(err.to_string().contains("snapshots[0]"), "{err}");

    // Misspelled temporal fields fail at parse time.
    let text = r#"{
        "protocol": {"name": "three-majority"},
        "initial": {"kind": "balanced", "n": 100, "k": 4},
        "trials": 2,
        "master_seed": 1,
        "graph": {"family": "cycle", "temporal": {"kind": "rewire", "periods": 5}}
    }"#;
    assert!(JobSpec::from_json_text(text).is_err());
}

#[test]
fn community_assignments_validate_and_run() {
    // per-block on the barbell: one opinion per clique — the classic
    // metastable start; with a small cap every trial stalls.
    let mut spec = graph_spec(GraphFamily::Barbell);
    spec.initial = InitialSpec::Counts(vec![100, 100]);
    spec.max_rounds = 60;
    spec.trials = 3;
    spec.graph = Some(GraphSpec {
        assignment: OpinionAssignment::PerBlock(vec![0, 1]),
        ..spec.graph.clone().unwrap()
    });
    let report = run_job_simple(&spec).unwrap();
    assert_eq!(report.summary.capped, 3, "per-block barbell should stall");

    // proportions on the SBM: a 90/10 vs 10/90 community mix runs clean.
    let mut spec = graph_spec(GraphFamily::StochasticBlockModel {
        p_in: 0.4,
        p_out: 0.05,
    });
    spec.graph = Some(GraphSpec {
        assignment: OpinionAssignment::Proportions(vec![vec![0.9, 0.1], vec![0.1, 0.9]]),
        ..spec.graph.clone().unwrap()
    });
    let report = run_job_simple(&spec).unwrap();
    assert_eq!(report.summary.trials, 8);

    // Typed validation errors: wrong row count, wrong k, bad sums, and
    // out-of-range per-block opinions.
    let mut wrong_rows = spec.clone();
    wrong_rows.graph = Some(GraphSpec {
        assignment: OpinionAssignment::Proportions(vec![vec![0.5, 0.5]]),
        ..wrong_rows.graph.unwrap()
    });
    let err = wrong_rows.validate().err().expect("1 row vs 2 communities");
    assert!(err.to_string().contains("communities"), "{err}");

    let mut wrong_k = spec.clone();
    wrong_k.graph = Some(GraphSpec {
        assignment: OpinionAssignment::Proportions(vec![vec![1.0], vec![1.0]]),
        ..wrong_k.graph.unwrap()
    });
    assert!(wrong_k.validate().is_err());

    let mut bad_sum = spec.clone();
    bad_sum.graph = Some(GraphSpec {
        assignment: OpinionAssignment::Proportions(vec![vec![0.9, 0.3], vec![0.5, 0.5]]),
        ..bad_sum.graph.unwrap()
    });
    let err = bad_sum.validate().err().expect("rows must sum to 1");
    assert!(err.to_string().contains("sums to"), "{err}");

    let mut bad_opinion = spec.clone();
    bad_opinion.graph = Some(GraphSpec {
        assignment: OpinionAssignment::PerBlock(vec![0, 7]),
        ..bad_opinion.graph.unwrap()
    });
    let err = bad_opinion.validate().err().expect("opinion 7 vs k = 2");
    assert!(err.to_string().contains("7"), "{err}");

    // block_mix without the proportions assignment is rejected at parse
    // time.
    let text = r#"{
        "protocol": {"name": "three-majority"},
        "initial": {"kind": "balanced", "n": 100, "k": 4},
        "trials": 2,
        "master_seed": 1,
        "graph": {"family": "barbell", "block_mix": [[0.5, 0.5]]}
    }"#;
    assert!(JobSpec::from_json_text(text).is_err());
}

fn weighted_temporal_spec(
    scheme: WeightScheme,
    schedule: TemporalSchedule,
    period: u64,
) -> JobSpec {
    let mut spec = graph_spec(GraphFamily::RandomRegular { d: 8 });
    spec.graph = Some(GraphSpec {
        weights: Some(WeightsSpec {
            scheme,
            seed: None,
            resolver: WeightResolver::Alias,
        }),
        temporal: Some(TemporalSpec { schedule, period }),
        ..spec.graph.unwrap()
    });
    spec
}

#[test]
fn new_weight_schemes_roundtrip_and_validate() {
    let specs = vec![
        weighted_spec(WeightScheme::DegreeProduct),
        weighted_spec(WeightScheme::Explicit {
            edges: vec![(0, 1, 5), (1, 2, 7)],
            default: 1,
        }),
        weighted_temporal_spec(
            WeightScheme::Random { min: 1, max: 8 },
            TemporalSchedule::Snapshots(vec![GraphFamily::ErdosRenyi {
                p: 0.05,
                backbone: true,
            }]),
            3,
        ),
        weighted_temporal_spec(WeightScheme::DegreeProduct, TemporalSchedule::Rewire, 2),
    ];
    for spec in specs {
        let text = spec.to_json().to_string_pretty();
        let back = JobSpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec, "roundtrip failed for {text}");
        assert_eq!(back.content_hash(), spec.content_hash());
        spec.validate().unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

#[test]
fn repaired_rewire_families_run_and_are_shard_invariant() {
    // Bare (backbone-less) ER and the SBM can isolate vertices in a
    // rewired epoch; the deterministic repair post-pass makes them legal
    // schedules now — and keeps them partition-invariant.
    for family in [
        GraphFamily::ErdosRenyi {
            p: 0.02,
            backbone: false,
        },
        GraphFamily::StochasticBlockModel {
            p_in: 0.1,
            p_out: 0.005,
        },
    ] {
        let mut summaries = vec![];
        for shard_size in [1u64, 3, 8] {
            let mut spec = temporal_spec(TemporalSchedule::Rewire, 2);
            spec.shard_size = shard_size;
            spec.graph = Some(GraphSpec {
                family: family.clone(),
                ..spec.graph.unwrap()
            });
            summaries.push(run_job_simple(&spec).unwrap().summary);
        }
        assert_eq!(summaries[0], summaries[1], "{family:?}");
        assert_eq!(summaries[0], summaries[2], "{family:?}");
        assert_eq!(summaries[0].trials, 8);
    }
}

#[test]
fn weighted_temporal_jobs_run_and_are_shard_invariant() {
    for schedule in [
        TemporalSchedule::Snapshots(vec![GraphFamily::Cycle]),
        TemporalSchedule::Rewire,
    ] {
        let mut summaries = vec![];
        for shard_size in [1u64, 3, 8] {
            let spec = JobSpec {
                shard_size,
                ..weighted_temporal_spec(
                    WeightScheme::Random { min: 1, max: 8 },
                    schedule.clone(),
                    2,
                )
            };
            summaries.push(run_job_simple(&spec).unwrap().summary);
        }
        assert_eq!(summaries[0], summaries[1], "{schedule:?}");
        assert_eq!(summaries[0], summaries[2], "{schedule:?}");
        assert_eq!(summaries[0].trials, 8);
    }
}

#[test]
fn unit_weight_temporal_jobs_match_unweighted_temporal_jobs() {
    // weights {uniform, value 1} on every snapshot draws the very same
    // sample paths as the unweighted temporal engine, so the merged
    // summaries must be equal — the combined scenario's anchor.
    let schedule = TemporalSchedule::Snapshots(vec![GraphFamily::ErdosRenyi {
        p: 0.05,
        backbone: true,
    }]);
    let plain = run_job_simple(&temporal_spec(schedule.clone(), 3)).unwrap();
    let weighted = run_job_simple(&weighted_temporal_spec(
        WeightScheme::Uniform { value: 1 },
        schedule,
        3,
    ))
    .unwrap();
    assert_eq!(plain.summary, weighted.summary);
}

#[test]
fn weighted_temporal_jobs_kill_resume_byte_identically_mid_schedule() {
    // The combined scenario's checkpoint/resume guarantee: drop half the
    // completed shards ("kill"), resume, and the merged summary must be
    // byte-identical to the uninterrupted run.
    let dir = std::env::temp_dir().join(format!("od_wtemp_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint_path = dir.join("job.checkpoint.json");
    let spec = weighted_temporal_spec(
        WeightScheme::Random { min: 1, max: 8 },
        TemporalSchedule::Snapshots(vec![GraphFamily::ErdosRenyi {
            p: 0.05,
            backbone: true,
        }]),
        3,
    );
    let options = RunOptions {
        checkpoint_path: Some(checkpoint_path.clone()),
        ..RunOptions::default()
    };
    let uninterrupted = run_job(&spec, &options).unwrap();
    assert_eq!(uninterrupted.resumed_shards, 0);
    let reference_bytes = uninterrupted.summary.to_json().to_string_compact();

    let mut checkpoint = Checkpoint::load(&checkpoint_path).unwrap().unwrap();
    let total = checkpoint.shards.len() as u64;
    checkpoint.shards.retain(|&index, _| index % 2 == 0);
    let kept = checkpoint.shards.len() as u64;
    assert!(kept < total, "test must actually drop shards");
    checkpoint.save(&checkpoint_path).unwrap();

    let resumed = run_job(&spec, &options).unwrap();
    assert_eq!(resumed.resumed_shards, kept);
    assert_eq!(resumed.completed_shards, total);
    assert_eq!(
        resumed.summary.to_json().to_string_compact(),
        reference_bytes,
        "resumed summary must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn combined_jobs_hash_under_their_own_engine_tag() {
    // weights + temporal salts the hash with the combined tag, distinct
    // from both solo tags and from the bare FNV of the canonical JSON.
    let combined = weighted_temporal_spec(
        WeightScheme::Uniform { value: 2 },
        TemporalSchedule::Rewire,
        2,
    );
    let bare = {
        let canonical = combined.to_json().to_string_compact();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    };
    assert_ne!(combined.content_hash(), bare);
    assert_ne!(
        combined.content_hash(),
        weighted_spec(WeightScheme::Uniform { value: 2 }).content_hash()
    );
    assert_ne!(
        combined.content_hash(),
        temporal_spec(TemporalSchedule::Rewire, 2).content_hash()
    );
}

#[test]
fn degree_product_weights_run_and_bias_toward_hubs() {
    // A degree-correlated scheme on the core–periphery graph: valid,
    // runs, and consolidates (the heavy core dominates sampling).
    let mut spec = graph_spec(GraphFamily::CorePeriphery { core: 20 });
    spec.graph = Some(GraphSpec {
        weights: Some(WeightsSpec {
            scheme: WeightScheme::DegreeProduct,
            seed: None,
            resolver: WeightResolver::Alias,
        }),
        ..spec.graph.unwrap()
    });
    let report = run_job_simple(&spec).unwrap();
    assert_eq!(report.summary.trials, 8);
    assert_eq!(report.summary.capped, 0);
}

#[test]
fn explicit_weight_lists_run_on_deterministic_families() {
    // The cycle's edge set is deterministic, so an explicit list can be
    // written down in the spec: make edge {0, 1} overwhelmingly heavy.
    let mut spec = graph_spec(GraphFamily::Cycle);
    spec.graph = Some(GraphSpec {
        weights: Some(WeightsSpec {
            scheme: WeightScheme::Explicit {
                edges: vec![(0, 1, 1_000_000), (1, 2, 3)],
                default: 1,
            },
            seed: None,
            resolver: WeightResolver::Alias,
        }),
        ..spec.graph.unwrap()
    });
    let report = run_job_simple(&spec).unwrap();
    assert_eq!(report.summary.trials, 8);
}

#[test]
fn new_scheme_misuse_is_a_typed_error() {
    // Explicit entry for an edge the generated graph does not contain.
    let mut spec = graph_spec(GraphFamily::Cycle);
    spec.graph = Some(GraphSpec {
        weights: Some(WeightsSpec {
            scheme: WeightScheme::Explicit {
                edges: vec![(0, 5, 3)],
                default: 1,
            },
            seed: None,
            resolver: WeightResolver::Alias,
        }),
        ..spec.graph.unwrap()
    });
    let err = run_job_simple(&spec).expect_err("missing edge must fail");
    assert!(err.to_string().contains("no such edge"), "{err}");

    // Static explicit-list validation: self-pairs, out-of-range
    // endpoints, duplicates, empty lists.
    let self_pair = weighted_spec(WeightScheme::Explicit {
        edges: vec![(3, 3, 1)],
        default: 1,
    });
    assert!(self_pair
        .validate()
        .err()
        .unwrap()
        .to_string()
        .contains("distinct"));
    let out_of_range = weighted_spec(WeightScheme::Explicit {
        edges: vec![(0, 900, 1)],
        default: 1,
    });
    assert!(out_of_range
        .validate()
        .err()
        .unwrap()
        .to_string()
        .contains("out of range"));
    let duplicate = weighted_spec(WeightScheme::Explicit {
        edges: vec![(0, 1, 1), (1, 0, 2)],
        default: 1,
    });
    assert!(duplicate
        .validate()
        .err()
        .unwrap()
        .to_string()
        .contains("duplicate"));
    let empty = weighted_spec(WeightScheme::Explicit {
        edges: vec![],
        default: 1,
    });
    assert!(empty.validate().is_err());

    // Explicit × temporal: edge lists are tied to one static edge set.
    let combo = weighted_temporal_spec(
        WeightScheme::Explicit {
            edges: vec![(0, 1, 2)],
            default: 1,
        },
        TemporalSchedule::Snapshots(vec![GraphFamily::Cycle]),
        2,
    );
    let err = combo.validate().err().expect("explicit×temporal must fail");
    assert!(err.to_string().contains("static edge set"), "{err}");

    // Random min 0 × rewire: a mid-trial epoch could zero out a row past
    // the typed-error boundary.
    let risky = weighted_temporal_spec(
        WeightScheme::Random { min: 0, max: 3 },
        TemporalSchedule::Rewire,
        2,
    );
    let err = risky.validate().err().expect("min 0 rewire must fail");
    assert!(err.to_string().contains("min >= 1"), "{err}");

    // Uniform/random × rewire weights whose maximum times n - 1 exceeds
    // u32::MAX: a high-degree epoch could overflow a row mid-trial, past
    // the typed-error boundary — rejected statically (n = 200 here).
    let overflow = weighted_temporal_spec(
        WeightScheme::Uniform {
            value: u32::MAX / 100,
        },
        TemporalSchedule::Rewire,
        2,
    );
    let err = overflow.validate().err().expect("overflow bound must fail");
    assert!(err.to_string().contains("u32::MAX"), "{err}");
    let overflow = weighted_temporal_spec(
        WeightScheme::Random {
            min: 1,
            max: u32::MAX / 100,
        },
        TemporalSchedule::Rewire,
        2,
    );
    assert!(overflow.validate().is_err());
    // The same weights under a snapshots schedule stay legal: snapshots
    // are built at job start, where overflow is a typed build error.
    let snapshots_ok = weighted_temporal_spec(
        WeightScheme::Uniform {
            value: u32::MAX / 100,
        },
        TemporalSchedule::Snapshots(vec![GraphFamily::Cycle]),
        2,
    );
    snapshots_ok.validate().unwrap();

    // Unknown scheme name fails at parse time with the full menu.
    let text = r#"{
        "protocol": {"name": "three-majority"},
        "initial": {"kind": "balanced", "n": 100, "k": 4},
        "trials": 2,
        "master_seed": 1,
        "graph": {"family": "cycle", "weights": {"scheme": "betweenness"}}
    }"#;
    let err = JobSpec::from_json_text(text).expect_err("unknown scheme");
    assert!(err.to_string().contains("degree-product"), "{err}");
}

#[test]
fn blocks_assignment_stalls_on_the_barbell() {
    // Two cliques, one bridge, one opinion per clique: 3-Majority cannot
    // cross the bridge within a small cap — the classic metastable case.
    let spec = JobSpec {
        trials: 3,
        max_rounds: 60,
        graph: Some(GraphSpec {
            assignment: OpinionAssignment::Blocks,
            ..GraphSpec::new(GraphFamily::Barbell)
        }),
        ..graph_spec(GraphFamily::Barbell)
    };
    let spec = JobSpec {
        initial: InitialSpec::Counts(vec![100, 100]),
        ..spec
    };
    let report = run_job_simple(&spec).unwrap();
    assert_eq!(report.summary.capped, 3, "barbell blocks should stall");
}

#[test]
fn executor_trials_match_the_concrete_engine_at_every_cell_width() {
    // The executor hands the batched engine each registry protocol by
    // value. For every protocol, with a top symbol that makes the run
    // store u8, u16 or u32 cells, one job trial on a random-regular graph
    // must end exactly where `run_batched` on the concrete protocol does.
    use od_core::protocol::{expand, GraphProtocol};
    use od_core::registry::{
        build_graph_protocol, registered_protocols, GraphProtocolKind, ProtocolParams,
    };
    use od_core::StopReason;
    use od_graphs::random_regular;
    use od_sampling::rng_for;
    // The executor's reserved graph-generator stream.
    const GRAPH_STREAM: u64 = 0x6f64_2d67_7261_7068;
    const GRAPH_SEED: u64 = 31;
    let n = 120usize;
    let graph = random_regular(n, 8, &mut rng_for(GRAPH_SEED, GRAPH_STREAM)).unwrap();
    // (opinion slots, the cell width's range of top symbols)
    for (slots, width) in [
        (4usize, 0..=255u32),
        (300, 256..=65_535),
        (70_000, 65_536..=u32::MAX),
    ] {
        for name in registered_protocols() {
            // Undecided's blank is the last slot; noisy flips over all.
            let params = match name {
                "h-majority" => ProtocolParams::new().with_int("h", 5),
                "undecided" => ProtocolParams::new().with_int("k", slots as u64 - 1),
                "noisy-three-majority" => ProtocolParams::new()
                    .with_float("epsilon", 0.01)
                    .with_int("k", slots as u64),
                _ => ProtocolParams::new(),
            };
            let mut counts = vec![0u64; slots];
            counts[0] = 70;
            counts[slots - 2] = 50;
            let spec = JobSpec {
                params: params.clone(),
                trials: 1,
                max_rounds: 400,
                shard_size: 1,
                graph: Some(GraphSpec {
                    seed: Some(GRAPH_SEED),
                    assignment: OpinionAssignment::Blocks,
                    ..GraphSpec::new(GraphFamily::RandomRegular { d: 8 })
                }),
                ..JobSpec::new("width", name, InitialSpec::Counts(counts), 1, 5)
            };
            let report = run_job_simple(&spec).unwrap();
            let opinions = expand(&spec.initial.build().unwrap());
            let top = *opinions.iter().max().unwrap();
            let kind = build_graph_protocol(name, &params).unwrap();
            macro_rules! direct {
                ($p:ident) => {{
                    let bound = $p.max_symbol(top);
                    assert!(width.contains(&bound), "{name}: top symbol {bound}");
                    GraphSimulation::new($p, &graph)
                        .with_max_rounds(spec.max_rounds)
                        .run_batched(&opinions, derive_seed(spec.master_seed, 0))
                }};
            }
            let out = match kind {
                GraphProtocolKind::ThreeMajority(p) => direct!(p),
                GraphProtocolKind::TwoChoices(p) => direct!(p),
                GraphProtocolKind::Voter(p) => direct!(p),
                GraphProtocolKind::Median(p) => direct!(p),
                GraphProtocolKind::HMajority(p) => direct!(p),
                GraphProtocolKind::Undecided(p) => direct!(p),
                GraphProtocolKind::NoisyThreeMajority(p) => direct!(p),
            };
            let summary = &report.summary;
            let label = format!("{name} at {slots} slots: {out:?}");
            assert_eq!(summary.trials, 1, "{label}");
            match out.reason {
                StopReason::Consensus => {
                    assert_eq!(summary.consensus, 1, "{label}");
                    assert_eq!(summary.rounds.sum(), u128::from(out.rounds), "{label}");
                    assert_eq!(
                        summary.winners.count(out.winner.unwrap() as u64),
                        1,
                        "{label}"
                    );
                }
                StopReason::RoundLimit => assert_eq!(summary.capped, 1, "{label}"),
                StopReason::Predicate => unreachable!("consensus jobs stop on no predicate"),
            }
        }
    }
}

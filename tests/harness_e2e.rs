//! Integration: the experiment harness end-to-end in quick mode, including
//! CSV export.
//!
//! `quick_tables_match_the_pinned_digests` pins every quick-mode table's
//! CSV bytes; the expected digests live in `tests/golden/quick_tables.golden`.
//! Regenerate it (only for an intended change of sample paths or table
//! layout) with `OD_UPDATE_GOLDEN=1 cargo test --test harness_e2e`.

use opinion_dynamics::experiments::{registry, ExpConfig, Table};
use std::path::Path;

fn quick_cfg(sub: &str) -> ExpConfig {
    let mut cfg = ExpConfig::quick_for_tests();
    cfg.out_dir = std::env::temp_dir().join(format!("od_e2e_{sub}"));
    cfg
}

#[test]
fn registry_lists_all_thirteen_experiments() {
    let reg = registry();
    assert_eq!(reg.len(), 13);
    let ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
    for want in ["E1", "E6", "E13"] {
        assert!(ids.contains(&want), "missing {want}");
    }
    // Ids are unique.
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len());
}

#[test]
fn drift_and_validation_experiments_run_and_export() {
    let cfg = quick_cfg("drift");
    let reg = registry();
    for target in ["E6", "E13"] {
        let (_, _, runner) = reg
            .iter()
            .find(|(id, _, _)| *id == target)
            .expect("experiment exists");
        let tables = runner(&cfg);
        assert!(!tables.is_empty(), "{target} produced no tables");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{target}: empty table {}", t.title);
            let path = cfg.out_dir.join(format!("{target}_{}.csv", t.slug()));
            t.write_csv(&path).expect("csv written");
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.lines().count() > t.rows.len(), "csv lost rows");
        }
    }
    let _ = std::fs::remove_dir_all(cfg.out_dir);
}

#[test]
fn figure1_quick_export_has_both_dynamics() {
    let cfg = quick_cfg("fig1");
    let reg = registry();
    let (_, _, runner) = reg.iter().find(|(id, _, _)| *id == "E1").unwrap();
    let tables: Vec<Table> = runner(&cfg);
    assert_eq!(tables.len(), 2);
    assert!(tables[0].title.contains("3-Majority"));
    assert!(tables[1].title.contains("2-Choices"));
    // Every k row has a finite bound and a measured mean.
    for t in &tables {
        for row in &t.rows {
            let mean: f64 = row[1].parse().unwrap_or(f64::NAN);
            assert!(mean.is_finite(), "{}: unmeasured row {row:?}", t.title);
        }
    }
    let _ = std::fs::remove_dir_all(cfg.out_dir);
}

/// FNV-1a, 64-bit: a stable digest of a CSV's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn quick_tables_match_the_pinned_digests() {
    let cfg = quick_cfg("golden");
    let mut actual = Vec::new();
    for (id, _, runner) in registry() {
        for table in runner(&cfg) {
            let name = format!("{id}_{}.csv", table.slug());
            let path = cfg.out_dir.join(&name);
            table.write_csv(&path).expect("csv written");
            let bytes = std::fs::read(&path).unwrap();
            actual.push(format!("{name} {:016x}", fnv1a(&bytes)));
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.out_dir);

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_tables.golden");
    if std::env::var_os("OD_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, format!("{}\n", actual.join("\n"))).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), actual.len(), "table count changed");
    let mismatches: Vec<String> = golden
        .iter()
        .zip(&actual)
        .filter(|(want, got)| *want != got)
        .map(|(want, got)| format!("want {want}\n got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} table digests changed:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches.join("\n")
    );
}

//! Experiment harness regenerating every figure and table of
//! *“3-Majority and 2-Choices with Many Opinions”* (PODC 2025).
//!
//! Each experiment module corresponds to one artefact of the paper:
//!
//! | Id  | Artefact |
//! |-----|----------|
//! | E1  | Figure 1 / Theorem 1.1 — consensus time vs `k` |
//! | E2  | Theorem 2.1 — consensus time `O(log n / γ₀)` |
//! | E3  | Theorem 2.2 — growth of `γ_t` |
//! | E4  | Theorem 2.6 — plurality consensus vs initial margin |
//! | E5  | Theorem 2.7 — `Ω(k)` lower bound scaling |
//! | E6  | Table 1 / Lemma 4.1 — one-step drift table |
//! | E7  | Figure 2 — lemma pipeline (5.2 / 5.5 / 5.10) |
//! | E8  | §2.3 — multi-step concentration scaling |
//! | E9  | §1.1 \[CMRSS25\] — asynchronous 3-Majority |
//! | E10 | §2.5 — adversarial corruption |
//! | E11 | §2.5 — `h`-Majority family |
//! | E12 | §2.5 — other graph classes |
//! | E13 | eqs. (5)/(6), Lemma 4.2 — engine equivalence & Bernstein MGF |
//!
//! Run everything with `cargo run --release -p od-experiments --bin
//! run_experiments -- --all`, or a single one with `--exp E1`; add
//! `--quick` for a fast smoke-scale pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod sweep;

pub use report::Table;
pub use sweep::ExpConfig;

/// An experiment entry point: builds the tables for one paper artefact.
pub type ExperimentRunner = fn(&ExpConfig) -> Vec<Table>;

/// The registry of all experiments: `(id, title, runner)`.
#[must_use]
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentRunner)> {
    vec![
        (
            "E1",
            "Figure 1 / Theorem 1.1: consensus time vs k",
            experiments::figure1::run,
        ),
        (
            "E2",
            "Theorem 2.1: consensus time = O(log n / gamma0)",
            experiments::theorem21::run,
        ),
        (
            "E3",
            "Theorem 2.2: growth of gamma_t",
            experiments::gamma_growth::run,
        ),
        (
            "E4",
            "Theorem 2.6: plurality consensus vs initial margin",
            experiments::plurality::run,
        ),
        (
            "E5",
            "Theorem 2.7: Omega(k) lower bound",
            experiments::lower_bound::run,
        ),
        (
            "E6",
            "Table 1 / Lemma 4.1: one-step drift",
            experiments::drift_table1::run,
        ),
        (
            "E7",
            "Figure 2: lemma pipeline (5.2/5.5/5.10)",
            experiments::lemma_pipeline::run,
        ),
        (
            "E8",
            "Section 2.3: multi-step concentration",
            experiments::concentration::run,
        ),
        (
            "E9",
            "[CMRSS25]: asynchronous 3-Majority",
            experiments::asynchronous::run,
        ),
        (
            "E10",
            "Section 2.5: adversarial corruption",
            experiments::adversary::run,
        ),
        (
            "E11",
            "Section 2.5: h-Majority family",
            experiments::hmajority::run,
        ),
        (
            "E12",
            "Section 2.5: other graph classes",
            experiments::graphs::run,
        ),
        (
            "E13",
            "Eqs. (5)/(6), Lemma 4.2: engine equivalence & Bernstein MGF",
            experiments::validation::run,
        ),
    ]
}

//! The protocol registry: data-driven construction of protocols.
//!
//! The compile-time generic API (`Simulation::new(ThreeMajority)`) is ideal
//! for hand-written experiments but useless when the protocol arrives as
//! *data* — a job file, an RPC payload, a sweep specification. This module
//! turns `(name, parameters)` into a concrete [`GraphProtocolKind`] through
//! one name → protocol table ([`build_graph_protocol`]), with typed
//! [`Error`]s for unknown names and invalid parameters. A
//! [`DynProtocol`] — the ready-to-run
//! `Box<dyn SyncProtocol + Send + Sync>` of [`build_protocol`] — is that
//! `GraphProtocolKind`, boxed.
//!
//! # Examples
//!
//! ```
//! use od_core::registry::{build_protocol, ProtocolParams};
//! use od_core::{OpinionCounts, Simulation};
//!
//! let proto = build_protocol("three-majority", &ProtocolParams::new()).unwrap();
//! let sim = Simulation::new(proto);
//! let start = OpinionCounts::balanced(1000, 4).unwrap();
//! let mut rng = od_sampling::rng_for(1, 0);
//! assert!(sim.run(&start, &mut rng).reached_consensus());
//! ```

use crate::error::Error;
use crate::protocol::{
    HMajority, MedianRule, Noisy, SyncProtocol, ThreeMajority, TwoChoices, UndecidedDynamics, Voter,
};
use std::collections::BTreeMap;

/// A boxed, thread-shareable protocol, ready for the sharded executor.
pub type DynProtocol = Box<dyn SyncProtocol + Send + Sync>;

/// A protocol parameter value: integer or float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// An integer parameter (e.g. `h`, `k`).
    Int(u64),
    /// A floating-point parameter (e.g. `epsilon`).
    Float(f64),
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Int(v) => write!(f, "{v}"),
            Self::Float(v) => write!(f, "{v}"),
        }
    }
}

/// Named parameters for a registry construction, as ordered key–value
/// pairs (a `BTreeMap`, so serialisation is canonical).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtocolParams {
    entries: BTreeMap<String, ParamValue>,
}

impl ProtocolParams {
    /// Creates an empty parameter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: sets an integer parameter.
    #[must_use]
    pub fn with_int(mut self, key: &str, value: u64) -> Self {
        self.entries.insert(key.to_string(), ParamValue::Int(value));
        self
    }

    /// Builder-style: sets a float parameter.
    #[must_use]
    pub fn with_float(mut self, key: &str, value: f64) -> Self {
        self.entries
            .insert(key.to_string(), ParamValue::Float(value));
        self
    }

    /// Sets a parameter.
    pub fn set(&mut self, key: &str, value: ParamValue) {
        self.entries.insert(key.to_string(), value);
    }

    /// Looks up a parameter.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<ParamValue> {
        self.entries.get(key).copied()
    }

    /// True when no parameters are set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` pairs in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ParamValue)> + '_ {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Integer value of `key`, as a typed error if missing or non-integer.
    fn require_int(&self, protocol: &str, key: &str) -> Result<u64, Error> {
        match self.get(key) {
            Some(ParamValue::Int(v)) => Ok(v),
            Some(ParamValue::Float(_)) => Err(Error::InvalidParams {
                protocol: protocol.to_string(),
                reason: format!("parameter '{key}' must be an integer"),
            }),
            None => Err(Error::InvalidParams {
                protocol: protocol.to_string(),
                reason: format!("missing required parameter '{key}'"),
            }),
        }
    }

    /// Float value of `key` (integers coerce), as a typed error if missing.
    fn require_float(&self, protocol: &str, key: &str) -> Result<f64, Error> {
        match self.get(key) {
            Some(ParamValue::Float(v)) => Ok(v),
            Some(ParamValue::Int(v)) => Ok(v as f64),
            None => Err(Error::InvalidParams {
                protocol: protocol.to_string(),
                reason: format!("missing required parameter '{key}'"),
            }),
        }
    }

    /// Typed error unless every set parameter key is in `allowed`.
    fn reject_unknown(&self, protocol: &str, allowed: &[&str]) -> Result<(), Error> {
        for (key, _) in self.iter() {
            if !allowed.contains(&key) {
                return Err(Error::InvalidParams {
                    protocol: protocol.to_string(),
                    reason: format!(
                        "unknown parameter '{key}' (allowed: {})",
                        if allowed.is_empty() {
                            "none".to_string()
                        } else {
                            allowed.join(", ")
                        }
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The largest `h` the registry builds: every vertex draws `h` samples a
/// round, and the graph engine's pass-1 index buffer holds 1024 rows of
/// them, so `2¹²` keeps that buffer at 16 MiB. Larger values are a typed
/// error, not an allocation that aborts the process.
const MAX_H: usize = 1 << 12;

/// Integer parameter narrowed to `usize`, as a typed error when it does
/// not fit (relevant on 32-bit targets).
fn require_usize(params: &ProtocolParams, protocol: &str, key: &str) -> Result<usize, Error> {
    let v = params.require_int(protocol, key)?;
    usize::try_from(v).map_err(|_| Error::InvalidParams {
        protocol: protocol.to_string(),
        reason: format!("{key} = {v} does not fit a usize"),
    })
}

/// Canonical names of every registered protocol.
///
/// `h-majority` requires `h` (at most 4096); `undecided` requires `k`
/// (real opinions, the configuration then has `k + 1` slots);
/// `noisy-three-majority` requires `epsilon` and `k`. The parameterless
/// dynamics accept no parameters.
#[must_use]
pub fn registered_protocols() -> Vec<&'static str> {
    vec![
        "three-majority",
        "two-choices",
        "voter",
        "median",
        "h-majority",
        "undecided",
        "noisy-three-majority",
    ]
}

/// Resolves aliases to a canonical registry name.
fn canonical(name: &str) -> String {
    let lower = name.to_ascii_lowercase().replace('_', "-");
    match lower.as_str() {
        "3-majority" | "3majority" | "threemajority" => "three-majority".to_string(),
        "2-choices" | "2choices" | "twochoices" => "two-choices".to_string(),
        "median-rule" => "median".to_string(),
        "undecided-state" => "undecided".to_string(),
        other => other.to_string(),
    }
}

/// Constructs a boxed protocol from its registry name and parameters: the
/// [`build_graph_protocol`] value, boxed.
///
/// Accepts the canonical names of [`registered_protocols`] plus the paper's
/// spellings (`3-majority`, `2-choices`, `median-rule`, `undecided-state`);
/// matching is case-insensitive and `_`/`-` agnostic.
///
/// # Errors
///
/// Returns [`Error::UnknownProtocol`] for an unregistered name and
/// [`Error::InvalidParams`] for missing, unknown, or out-of-range
/// parameters. Never panics on bad input.
pub fn build_protocol(name: &str, params: &ProtocolParams) -> Result<DynProtocol, Error> {
    build_graph_protocol(name, params).map(GraphProtocolKind::into_dyn)
}

/// A registry-built protocol as a *concrete* enum, for callers that need
/// monomorphized code paths (the graph-dynamics engine's inner loop must
/// not go through `dyn`): match once, then run the generic engine on the
/// concrete variant. [`GraphProtocolKind::into_dyn`] boxes it into the
/// [`DynProtocol`] the population engine runs.
#[derive(Debug, Clone)]
pub enum GraphProtocolKind {
    /// 3-Majority.
    ThreeMajority(ThreeMajority),
    /// 2-Choices.
    TwoChoices(TwoChoices),
    /// The voter model.
    Voter(Voter),
    /// The median rule.
    Median(MedianRule),
    /// h-Majority.
    HMajority(HMajority),
    /// Undecided-state dynamics.
    Undecided(UndecidedDynamics),
    /// 3-Majority behind the uniform-noise channel.
    NoisyThreeMajority(Noisy<ThreeMajority>),
}

impl GraphProtocolKind {
    /// The protocol's human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Self::ThreeMajority(p) => p.name(),
            Self::TwoChoices(p) => p.name(),
            Self::Voter(p) => p.name(),
            Self::Median(p) => p.name(),
            Self::HMajority(p) => p.name(),
            Self::Undecided(p) => p.name(),
            Self::NoisyThreeMajority(p) => p.name(),
        }
    }

    /// Boxes the concrete protocol behind the registry's dynamic type.
    #[must_use]
    pub fn into_dyn(self) -> DynProtocol {
        match self {
            Self::ThreeMajority(p) => Box::new(p),
            Self::TwoChoices(p) => Box::new(p),
            Self::Voter(p) => Box::new(p),
            Self::Median(p) => Box::new(p),
            Self::HMajority(p) => Box::new(p),
            Self::Undecided(p) => Box::new(p),
            Self::NoisyThreeMajority(p) => Box::new(p),
        }
    }
}

/// Constructs the concrete [`GraphProtocolKind`] for a registry name — the
/// registry's one name → protocol table, with the names, aliases and
/// parameter validation described at [`build_protocol`].
///
/// # Errors
///
/// Returns [`Error::UnknownProtocol`] for an unregistered name and
/// [`Error::InvalidParams`] for missing, unknown, or out-of-range
/// parameters.
pub fn build_graph_protocol(
    name: &str,
    params: &ProtocolParams,
) -> Result<GraphProtocolKind, Error> {
    let canon = canonical(name);
    let invalid = |reason: &str| Error::InvalidParams {
        protocol: canon.clone(),
        reason: reason.to_string(),
    };
    match canon.as_str() {
        "three-majority" => {
            params.reject_unknown(&canon, &[])?;
            Ok(GraphProtocolKind::ThreeMajority(ThreeMajority))
        }
        "two-choices" => {
            params.reject_unknown(&canon, &[])?;
            Ok(GraphProtocolKind::TwoChoices(TwoChoices))
        }
        "voter" => {
            params.reject_unknown(&canon, &[])?;
            Ok(GraphProtocolKind::Voter(Voter))
        }
        "median" => {
            params.reject_unknown(&canon, &[])?;
            Ok(GraphProtocolKind::Median(MedianRule))
        }
        "h-majority" => {
            params.reject_unknown(&canon, &["h"])?;
            let h = require_usize(params, &canon, "h")?;
            if h > MAX_H {
                return Err(invalid(&format!("h = {h} exceeds the maximum {MAX_H}")));
            }
            let proto = HMajority::new(h).map_err(invalid)?;
            Ok(GraphProtocolKind::HMajority(proto))
        }
        "undecided" => {
            params.reject_unknown(&canon, &["k"])?;
            let k = require_usize(params, &canon, "k")?;
            if k == 0 {
                return Err(invalid("k must be at least 1"));
            }
            Ok(GraphProtocolKind::Undecided(UndecidedDynamics::new(k)))
        }
        "noisy-three-majority" => {
            params.reject_unknown(&canon, &["epsilon", "k"])?;
            let epsilon = params.require_float(&canon, "epsilon")?;
            let k = require_usize(params, &canon, "k")?;
            let proto = Noisy::new(ThreeMajority, epsilon, k).map_err(invalid)?;
            Ok(GraphProtocolKind::NoisyThreeMajority(proto))
        }
        _ => Err(Error::UnknownProtocol {
            name: name.to_string(),
        }),
    }
}

/// The exact opinion-slot count a protocol's configurations must have,
/// when the protocol fixes one (`undecided`: `params.k + 1` — the blank
/// state; `noisy-three-majority`: `params.k`). `None` for protocols that
/// accept any opinion space.
///
/// Lets spec validators reject slot-count mismatches up front with a
/// typed error instead of failing deep inside a trial.
///
/// # Errors
///
/// Returns [`Error::InvalidParams`] when the protocol's sizing parameter
/// is missing or ill-typed (the same condition [`build_protocol`]
/// rejects).
pub fn required_opinion_slots(name: &str, params: &ProtocolParams) -> Result<Option<usize>, Error> {
    let canon = canonical(name);
    Ok(match canon.as_str() {
        "undecided" => Some(
            require_usize(params, &canon, "k")?
                .checked_add(1)
                .ok_or_else(|| Error::InvalidParams {
                    protocol: canon.clone(),
                    reason: "k + 1 opinion slots do not fit a usize".to_string(),
                })?,
        ),
        "noisy-three-majority" => Some(require_usize(params, &canon, "k")?),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpinionCounts;
    use od_sampling::rng_for;

    #[test]
    fn every_registered_name_constructs_and_steps() {
        for name in registered_protocols() {
            let params = match name {
                "h-majority" => ProtocolParams::new().with_int("h", 5),
                "undecided" => ProtocolParams::new().with_int("k", 3),
                "noisy-three-majority" => ProtocolParams::new()
                    .with_float("epsilon", 0.05)
                    .with_int("k", 4),
                _ => ProtocolParams::new(),
            };
            let proto = build_protocol(name, &params)
                .unwrap_or_else(|e| panic!("building '{name}' failed: {e}"));
            let start = OpinionCounts::balanced(100, 4).unwrap();
            let mut rng = rng_for(170, 0);
            let next = proto.step_population(&start, &mut rng);
            assert_eq!(next.n(), 100, "population preserved for '{name}'");
        }
    }

    #[test]
    fn aliases_resolve() {
        for (alias, canon_name) in [
            ("3-Majority", "3-Majority"),
            ("2_choices", "2-Choices"),
            ("VOTER", "Voter"),
        ] {
            let proto = build_protocol(alias, &ProtocolParams::new()).unwrap();
            assert_eq!(proto.name(), canon_name, "alias '{alias}'");
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let err = build_protocol("gossip", &ProtocolParams::new())
            .err()
            .expect("expected a registry error");
        assert_eq!(
            err,
            Error::UnknownProtocol {
                name: "gossip".to_string()
            }
        );
        assert!(err.to_string().contains("three-majority"));
    }

    #[test]
    fn missing_parameter_is_a_typed_error() {
        let err = build_protocol("h-majority", &ProtocolParams::new())
            .err()
            .expect("expected a registry error");
        assert!(matches!(err, Error::InvalidParams { .. }));
        assert!(err.to_string().contains("'h'"));
    }

    #[test]
    fn out_of_range_parameter_is_a_typed_error() {
        // HMajority::new rejects h = 0.
        let err = build_protocol("h-majority", &ProtocolParams::new().with_int("h", 0))
            .err()
            .expect("expected a registry error");
        assert!(matches!(err, Error::InvalidParams { .. }));
        let err = build_protocol(
            "noisy-three-majority",
            &ProtocolParams::new()
                .with_float("epsilon", 1.5)
                .with_int("k", 4),
        )
        .err()
        .expect("expected a registry error");
        assert!(matches!(err, Error::InvalidParams { .. }));
    }

    #[test]
    fn unexpected_parameter_is_a_typed_error() {
        let err = build_protocol("voter", &ProtocolParams::new().with_int("h", 3))
            .err()
            .expect("expected a registry error");
        assert!(matches!(err, Error::InvalidParams { .. }));
        assert!(err.to_string().contains("unknown parameter"));
    }

    #[test]
    fn boxed_protocol_drives_a_simulation() {
        let proto = build_protocol("two-choices", &ProtocolParams::new()).unwrap();
        let sim = crate::Simulation::new(proto).with_max_rounds(100_000);
        let start = OpinionCounts::from_counts(vec![900, 100]).unwrap();
        let mut rng = rng_for(171, 0);
        let out = sim.run(&start, &mut rng);
        assert!(out.reached_consensus());
    }

    #[test]
    fn params_iterate_in_canonical_order() {
        let p = ProtocolParams::new()
            .with_int("k", 4)
            .with_float("epsilon", 0.1);
        let keys: Vec<&str> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["epsilon", "k"]);
    }
}

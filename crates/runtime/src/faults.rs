//! Deterministic fault injection ("failpoints") for robustness tests.
//!
//! Named sites in the persistence and queue layers call
//! [`fire`] with a site name; with the `failpoints` cargo feature
//! **off** (the default) that call is an inlined no-op returning
//! [`Injected::None`] — zero branches, zero atomics, nothing to
//! configure. With the feature **on**, the `OD_FAILPOINTS` environment
//! variable arms sites:
//!
//! ```text
//! OD_FAILPOINTS="<site>=<action>[@<k>][,<site>=<action>[@<k>]...]"
//! ```
//!
//! * `err:<kind>` — return an injected [`std::io::Error`]; kinds:
//!   `not-found`, `permission-denied`, `interrupted`, `unexpected-eof`,
//!   `other`.
//! * `torn:<n>` — ask the site to truncate its write to the first `n`
//!   bytes (a torn write: the file lands, but incomplete).
//! * `abort` — `std::process::abort()`: the hard-crash case, no
//!   destructors, no flushes.
//! * `panic` — panic at the site: the unwinding-bug case, which the
//!   queue worker must survive.
//!
//! `@<k>` fires on the *k*-th hit of that site only (default `@1`);
//! each armed entry fires exactly once, so a retried operation
//! succeeds on the attempt after the injection. Hit counting is
//! per-entry and process-wide.
//!
//! Sites wired in this crate: `checkpoint.persist`,
//! `checkpoint.persist.rename`, `checkpoint.load`, `lease.claim`,
//! `lease.renew`, `queue.scan`, `orch.spawn`, `orch.manifest.persist`,
//! `orch.merge.load`, and `executor.trial` (fired before every trial; it
//! honours `abort` and `panic` only). The `od-serve` crate wires `store.gc.evict`
//! (results-store eviction) and `store.scan` (every listing of the
//! results store) behind its own `failpoints` feature.

/// What an armed failpoint injects at a call site.
#[derive(Debug)]
pub enum Injected {
    /// Nothing: proceed normally.
    None,
    /// Fail the operation with this I/O error.
    Error(std::io::Error),
    /// Truncate the write to the first `n` bytes and continue.
    Truncate(usize),
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    /// No-op: the `failpoints` feature is off.
    #[inline(always)]
    pub fn fire(_site: &str) -> super::Injected {
        super::Injected::None
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::Injected;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Action {
        Err(std::io::ErrorKind),
        Torn(usize),
        Abort,
        Panic,
    }

    pub(super) struct Site {
        pub(super) name: String,
        pub(super) action: Action,
        /// Fires on the `at`-th hit (1-based).
        pub(super) at: u64,
        hits: AtomicU64,
    }

    /// Parses one `site=action[@k]` entry. Public within the crate so
    /// the parser is unit-testable without touching process env.
    pub(super) fn parse_entry(entry: &str) -> Result<Site, String> {
        let (name, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry '{entry}' is missing '='"))?;
        let (action_str, at) = match rest.rsplit_once('@') {
            Some((action, k)) => {
                let k: u64 = k
                    .parse()
                    .map_err(|_| format!("failpoint '{name}': bad hit count '{k}'"))?;
                if k == 0 {
                    return Err(format!("failpoint '{name}': hit count must be >= 1"));
                }
                (action, k)
            }
            None => (rest, 1),
        };
        let action = if action_str == "abort" {
            Action::Abort
        } else if action_str == "panic" {
            Action::Panic
        } else if let Some(kind) = action_str.strip_prefix("err:") {
            let kind = match kind {
                "not-found" => std::io::ErrorKind::NotFound,
                "permission-denied" => std::io::ErrorKind::PermissionDenied,
                "interrupted" => std::io::ErrorKind::Interrupted,
                "unexpected-eof" => std::io::ErrorKind::UnexpectedEof,
                "other" => std::io::ErrorKind::Other,
                other => return Err(format!("failpoint '{name}': unknown error kind '{other}'")),
            };
            Action::Err(kind)
        } else if let Some(n) = action_str.strip_prefix("torn:") {
            let n: usize = n
                .parse()
                .map_err(|_| format!("failpoint '{name}': bad truncation length '{n}'"))?;
            Action::Torn(n)
        } else {
            return Err(format!(
                "failpoint '{name}': unknown action '{action_str}' \
                 (expected err:<kind>, torn:<n>, abort, or panic)"
            ));
        };
        Ok(Site {
            name: name.to_string(),
            action,
            at,
            hits: AtomicU64::new(0),
        })
    }

    pub(super) fn parse_spec(spec: &str) -> Result<Vec<Site>, String> {
        spec.split(',')
            .map(str::trim)
            .filter(|e| !e.is_empty())
            .map(parse_entry)
            .collect()
    }

    fn registry() -> &'static [Site] {
        static REGISTRY: OnceLock<Vec<Site>> = OnceLock::new();
        REGISTRY.get_or_init(|| match std::env::var("OD_FAILPOINTS") {
            Ok(spec) => match parse_spec(&spec) {
                Ok(sites) => sites,
                Err(e) => {
                    // A malformed spec in a fault-injection build is a
                    // test-harness bug; fail loudly rather than running
                    // a silently fault-free "chaos" test.
                    eprintln!("OD_FAILPOINTS: {e}");
                    std::process::exit(2);
                }
            },
            Err(_) => Vec::new(),
        })
    }

    /// Evaluates the named failpoint against the armed registry: counts
    /// the hit and, on the configured k-th one, aborts the process,
    /// panics, or returns the injected error/truncation for the caller
    /// to apply.
    pub fn fire(site: &str) -> Injected {
        for armed in registry() {
            if armed.name != site {
                continue;
            }
            let hit = armed.hits.fetch_add(1, Ordering::SeqCst) + 1;
            if hit != armed.at {
                continue;
            }
            match armed.action {
                Action::Abort => std::process::abort(),
                Action::Panic => panic!("injected failpoint '{site}'"),
                Action::Err(kind) => {
                    return Injected::Error(std::io::Error::new(
                        kind,
                        format!("injected failpoint '{site}'"),
                    ))
                }
                Action::Torn(n) => return Injected::Truncate(n),
            }
        }
        Injected::None
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_every_action_and_hit_count() {
            let sites =
                parse_spec("checkpoint.persist=torn:10@2, lease.claim=err:other ,queue.scan=abort")
                    .unwrap();
            assert_eq!(sites.len(), 3);
            assert_eq!(sites[0].name, "checkpoint.persist");
            assert_eq!(sites[0].action, Action::Torn(10));
            assert_eq!(sites[0].at, 2);
            assert_eq!(sites[1].name, "lease.claim");
            assert_eq!(sites[1].action, Action::Err(std::io::ErrorKind::Other));
            assert_eq!(sites[1].at, 1);
            assert_eq!(sites[2].action, Action::Abort);
            let panic = parse_spec("executor.trial=panic@2").unwrap();
            assert_eq!(panic[0].action, Action::Panic);
            assert_eq!(panic[0].at, 2);
        }

        #[test]
        fn rejects_malformed_entries() {
            assert!(parse_spec("no-equals").is_err());
            assert!(parse_spec("a=err:bogus-kind").is_err());
            assert!(parse_spec("a=torn:x").is_err());
            assert!(parse_spec("a=abort@0").is_err());
            assert!(parse_spec("a=explode").is_err());
            assert!(parse_spec("").unwrap().is_empty());
        }
    }
}

pub use imp::fire;

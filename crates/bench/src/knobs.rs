//! The `T2HX_*` knob table: the one place the process environment is read.
//!
//! Library crates take explicit inputs; every harness binary, `run_all`
//! and `obs_validate` take their knobs from [`config`], which
//! parses the environment once per process against [`KNOBS`]. An unknown
//! `T2HX_*` name, or a value that does not parse, exits with code 2 and a
//! message naming the knob and its valid choices — a misspelling never
//! silently runs the default. [`parse`] is the pure function underneath,
//! so tests never touch the process environment.
//!
//! README.md's environment table lists the same knobs in the same order
//! (pinned by `tests/registry_sync.rs`).

use hxcap::{PolicyKind, POLICY_NAMES};
use hxmpi::RailPolicy;
use hxroute::engines::RoutingEngine;
use hxroute::{engine_by_name, ENGINE_NAMES};
use hxsim::SolverKind;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::OnceLock;

/// The values a knob accepts. Its `Display` is the list of choices an
/// error message names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accepts {
    /// `0` (off) or `1` (on).
    Switch,
    /// A non-empty path.
    Path,
    /// A positive integer.
    Count,
    /// An unsigned integer, decimal or `0x`-prefixed hex.
    Seed,
    /// A positive number.
    Number,
    /// One of a fixed set of names (case-insensitive).
    OneOf(&'static [&'static str]),
}

impl fmt::Display for Accepts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Accepts::Switch => f.write_str("0 or 1"),
            Accepts::Path => f.write_str("a non-empty path"),
            Accepts::Count => f.write_str("a positive integer"),
            Accepts::Seed => f.write_str("an unsigned integer (decimal or 0x-hex)"),
            Accepts::Number => f.write_str("a positive number"),
            Accepts::OneOf(names) => write!(f, "one of {}", names.join(", ")),
        }
    }
}

/// One `T2HX_*` knob: its name, what it accepts, and where a parsed value
/// lands in the [`RunConfig`].
pub struct Knob {
    /// Environment variable name.
    pub name: &'static str,
    /// Valid values.
    pub accepts: Accepts,
    /// Parses a value into the config; `None` when it does not parse.
    set: fn(&mut RunConfig, &str) -> Option<()>,
}

/// Every knob, in README.md order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "T2HX_QUICK",
        accepts: Accepts::Switch,
        set: |c, v| switch(v).map(|x| c.quick = x),
    },
    Knob {
        name: "T2HX_RESULTS_DIR",
        accepts: Accepts::Path,
        set: |c, v| path(v).map(|x| c.results_dir = Some(x)),
    },
    Knob {
        name: "T2HX_OBS",
        accepts: Accepts::Switch,
        set: |c, v| switch(v).map(|x| c.obs = x),
    },
    Knob {
        name: "T2HX_OBS_DIR",
        accepts: Accepts::Path,
        set: |c, v| path(v).map(|x| c.obs_dir = Some(x)),
    },
    Knob {
        name: "T2HX_SAMPLES",
        accepts: Accepts::Count,
        set: |c, v| count(v).map(|x| c.samples = Some(x)),
    },
    Knob {
        name: "T2HX_SOLVER",
        accepts: Accepts::OneOf(&["exact", "incremental"]),
        set: |c, v| SolverKind::parse(v).map(|x| c.solver = x),
    },
    Knob {
        name: "T2HX_ENGINE",
        accepts: Accepts::OneOf(ENGINE_NAMES),
        set: |c, v| engine_by_name(v).map(|x| c.engine = Some(x.name())),
    },
    Knob {
        name: "T2HX_PLANES",
        accepts: Accepts::Count,
        set: |c, v| count(v).map(|x| c.planes = Some(x)),
    },
    Knob {
        name: "T2HX_RAIL",
        accepts: Accepts::OneOf(&["rr", "hash", "load"]),
        set: |c, v| {
            RailPolicy::all()
                .into_iter()
                .find(|r| r.label().eq_ignore_ascii_case(v))
                .map(|x| c.rail = Some(x))
        },
    },
    Knob {
        name: "T2HX_HXD_READERS",
        accepts: Accepts::Count,
        set: |c, v| count(v).map(|x| c.hxd_readers = Some(x)),
    },
    Knob {
        name: "T2HX_HXD_QUERIES",
        accepts: Accepts::Count,
        set: |c, v| count(v).map(|x| c.hxd_queries = Some(x)),
    },
    Knob {
        name: "T2HX_HXD_SEED",
        accepts: Accepts::Seed,
        set: |c, v| seed(v).map(|x| c.hxd_seed = Some(x)),
    },
    Knob {
        name: "T2HX_CAP_POLICY",
        accepts: Accepts::OneOf(&POLICY_NAMES),
        set: |c, v| PolicyKind::parse(v).map(|x| c.cap_policy = Some(x)),
    },
    Knob {
        name: "T2HX_CAP_SEEDS",
        accepts: Accepts::Count,
        set: |c, v| count(v).map(|x| c.cap_seeds = Some(x)),
    },
    Knob {
        name: "T2HX_CAP_DAYS",
        accepts: Accepts::Number,
        set: |c, v| {
            v.parse::<f64>()
                .ok()
                .filter(|d| d.is_finite() && *d > 0.0)
                .map(|x| c.cap_days = Some(x))
        },
    },
    Knob {
        name: "T2HX_CAP_SEED",
        accepts: Accepts::Seed,
        set: |c, v| seed(v).map(|x| c.cap_seed = Some(x)),
    },
];

fn switch(v: &str) -> Option<bool> {
    match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn path(v: &str) -> Option<PathBuf> {
    (!v.is_empty()).then(|| PathBuf::from(v))
}

fn count<T: FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

fn seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// The typed run configuration: one field per knob. `None` means unset,
/// so the harness that reads the field applies its own default.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// `T2HX_QUICK`: CI-sized sweeps everywhere.
    pub quick: bool,
    results_dir: Option<PathBuf>,
    /// `T2HX_OBS`: install the observability sink and flight ring.
    pub obs: bool,
    obs_dir: Option<PathBuf>,
    /// `T2HX_SAMPLES`: eBB random-bisection sample count.
    pub samples: Option<usize>,
    /// `T2HX_SOLVER`: congestion backend (default incremental).
    pub solver: SolverKind,
    /// `T2HX_ENGINE`: routing engine, by canonical registry name.
    pub engine: Option<&'static str>,
    /// `T2HX_PLANES`: plane (NIC rail) count of multi-plane systems.
    pub planes: Option<usize>,
    /// `T2HX_RAIL`: NIC rail-selection policy.
    pub rail: Option<RailPolicy>,
    /// `T2HX_HXD_READERS`: `hxd` reader threads.
    pub hxd_readers: Option<u64>,
    /// `T2HX_HXD_QUERIES`: total `hxd` queries across readers.
    pub hxd_queries: Option<u64>,
    /// `T2HX_HXD_SEED`: master seed of the `hxd` query streams.
    pub hxd_seed: Option<u64>,
    /// `T2HX_CAP_POLICY`: the one placement policy `capacity_scale` runs.
    pub cap_policy: Option<PolicyKind>,
    /// `T2HX_CAP_SEEDS`: seeds per policy in `capacity_scale`.
    pub cap_seeds: Option<u64>,
    /// `T2HX_CAP_DAYS`: simulated horizon of the allocation stream.
    pub cap_days: Option<f64>,
    /// `T2HX_CAP_SEED`: base seed of the `capacity_scale` job streams.
    pub cap_seed: Option<u64>,
}

impl RunConfig {
    /// Where `run_all` writes harness outputs: `T2HX_RESULTS_DIR`, else
    /// `results/quick` in quick mode and `results` otherwise — so a smoke
    /// run never clobbers the committed full-mode numbers.
    pub fn results_dir(&self) -> PathBuf {
        match &self.results_dir {
            Some(d) => d.clone(),
            None if self.quick => PathBuf::from("results/quick"),
            None => PathBuf::from("results"),
        }
    }

    /// Where observability artefacts land: `T2HX_OBS_DIR`, else
    /// `<results_dir>/obs`.
    pub fn obs_dir(&self) -> PathBuf {
        self.obs_dir
            .clone()
            .unwrap_or_else(|| self.results_dir().join("obs"))
    }

    /// The `T2HX_ENGINE` engine, or `default()` when the knob is unset.
    pub fn engine_or(
        &self,
        default: impl FnOnce() -> Box<dyn RoutingEngine>,
    ) -> Box<dyn RoutingEngine> {
        match self.engine {
            Some(name) => engine_by_name(name).expect("validated by parse"),
            None => default(),
        }
    }
}

/// Why the environment was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum KnobError {
    /// A `T2HX_*` name that is not in [`KNOBS`].
    Unknown(String),
    /// A knob whose value does not parse.
    BadValue {
        /// The knob.
        knob: &'static str,
        /// The rejected value.
        value: String,
        /// What the knob accepts.
        accepts: Accepts,
    },
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::Unknown(name) => {
                let known: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
                write!(f, "unknown knob {name} (known: {})", known.join(", "))
            }
            KnobError::BadValue {
                knob,
                value,
                accepts,
            } => write!(f, "{knob}={value:?} is invalid: expected {accepts}"),
        }
    }
}

/// Parses `(name, value)` pairs — typically the process environment —
/// into a [`RunConfig`]. Names without the `T2HX_` prefix are ignored;
/// the first unknown name or unparsable value is an error.
pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<RunConfig, KnobError>
where
    K: AsRef<str>,
    V: AsRef<str>,
{
    let mut cfg = RunConfig::default();
    for (name, value) in vars {
        let (name, value) = (name.as_ref(), value.as_ref());
        if !name.starts_with("T2HX_") {
            continue;
        }
        let knob = KNOBS
            .iter()
            .find(|k| k.name == name)
            .ok_or_else(|| KnobError::Unknown(name.to_string()))?;
        (knob.set)(&mut cfg, value).ok_or_else(|| KnobError::BadValue {
            knob: knob.name,
            value: value.to_string(),
            accepts: knob.accepts,
        })?;
    }
    Ok(cfg)
}

/// This process's configuration, parsed from the environment on first
/// use. Exits with code 2 when [`parse`] refuses the environment.
pub fn config() -> &'static RunConfig {
    static CONFIG: OnceLock<RunConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let vars = std::env::vars_os().map(|(k, v)| {
            (
                k.to_string_lossy().into_owned(),
                v.to_string_lossy().into_owned(),
            )
        });
        parse(vars).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(name: &str, value: &str) -> Result<RunConfig, KnobError> {
        parse([(name, value)])
    }

    #[test]
    fn every_knob_rejects_a_misspelled_value_with_its_choices() {
        for knob in KNOBS {
            let bad = match knob.accepts {
                Accepts::Path => "",
                _ => "bogus",
            };
            let err = one(knob.name, bad).unwrap_err();
            assert_eq!(
                err,
                KnobError::BadValue {
                    knob: knob.name,
                    value: bad.to_string(),
                    accepts: knob.accepts,
                }
            );
            let msg = err.to_string();
            assert!(msg.contains(knob.name), "{msg}");
            assert!(msg.contains(&knob.accepts.to_string()), "{msg}");
        }
        let msg = one("T2HX_SOLVER", "exakt").unwrap_err().to_string();
        assert!(msg.contains("exact, incremental"), "{msg}");
    }

    #[test]
    fn every_knob_accepts_a_valid_value() {
        for knob in KNOBS {
            let good = match knob.accepts {
                Accepts::Switch | Accepts::Count | Accepts::Number => "1",
                Accepts::Path => "out",
                Accepts::Seed => "0x4878",
                Accepts::OneOf(names) => names[names.len() - 1],
            };
            assert!(one(knob.name, good).is_ok(), "{}={good}", knob.name);
        }
    }

    #[test]
    fn unknown_names_are_rejected_and_foreign_names_ignored() {
        let err = parse([("T2HX_SOVLER", "exact")]).unwrap_err();
        assert_eq!(err, KnobError::Unknown("T2HX_SOVLER".into()));
        assert!(err.to_string().contains("T2HX_SOLVER"));
        for gone in [
            "T2HX_OBS_FLIGHT",
            "T2HX_OBS_FLIGHT_CAP",
            "T2HX_PERF_THRESHOLD",
            "T2HX_PERF_SAMPLES",
            "T2HX_BENCH_OUT",
        ] {
            assert!(parse([(gone, "1")]).is_err(), "{gone}");
        }
        assert!(parse([("PATH", "/bin"), ("HOME", "")]).is_ok());
    }

    #[test]
    fn defaults_and_directory_rule() {
        let cfg = parse(Vec::<(String, String)>::new()).unwrap();
        assert!(!cfg.quick && !cfg.obs);
        assert_eq!(cfg.solver, SolverKind::Incremental);
        assert_eq!(cfg.results_dir(), PathBuf::from("results"));
        assert_eq!(cfg.obs_dir(), PathBuf::from("results/obs"));
        let quick = one("T2HX_QUICK", "1").unwrap();
        assert_eq!(quick.obs_dir(), PathBuf::from("results/quick/obs"));
        let res = parse([("T2HX_QUICK", "1"), ("T2HX_RESULTS_DIR", "alt")]).unwrap();
        assert_eq!(res.results_dir(), PathBuf::from("alt"));
        assert_eq!(res.obs_dir(), PathBuf::from("alt/obs"));
        let obs = parse([("T2HX_RESULTS_DIR", "alt"), ("T2HX_OBS_DIR", "o")]).unwrap();
        assert_eq!(obs.obs_dir(), PathBuf::from("o"));
    }

    #[test]
    fn typed_values() {
        let cfg = parse([
            ("T2HX_ENGINE", "FTHyperX"),
            ("T2HX_RAIL", "hash"),
            ("T2HX_PLANES", "3"),
            ("T2HX_HXD_SEED", "0x4878"),
            ("T2HX_CAP_SEED", "3241"),
            ("T2HX_CAP_POLICY", "network-aware"),
        ])
        .unwrap();
        assert_eq!(cfg.engine, Some("ft-hyperx"));
        assert_eq!(cfg.engine_or(|| unreachable!()).name(), "ft-hyperx");
        assert_eq!(cfg.rail, Some(RailPolicy::FlowHash));
        assert_eq!(cfg.planes, Some(3));
        assert_eq!(cfg.hxd_seed, Some(0x4878));
        assert_eq!(cfg.cap_seed, Some(3241));
        assert_eq!(cfg.cap_policy, Some(PolicyKind::NetworkAware));
        assert!(one("T2HX_PLANES", "0").is_err());
    }
}

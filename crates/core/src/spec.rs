//! `DetectorSpec` — a declarative description of a detector run, and the
//! single registry that turns it into a `Box<dyn CommunityDetector>`.
//!
//! Every front end (the CLI's `--algo` flag, `parcom-serve` request
//! bodies, benches) used to carry its own `match algo { ... }` string
//! dispatch; each copy drifted independently and none agreed on which
//! knobs an algorithm accepts. The spec centralizes that: one
//! [`REGISTRY`] of [`AlgoInfo`] entries declares every constructible
//! algorithm, its knobs, and its build function, and [`DetectorSpec`]
//! is the serializable request that names one of them.
//!
//! Two wire forms round-trip losslessly:
//!
//! * **string** — `plm:gamma=1.5,seed=7` (knob order is canonicalized
//!   by [`Display`](std::fmt::Display): `ensemble`, `gamma`, `move`,
//!   `seed`);
//! * **JSON** — `{"algo":"plm","gamma":1.5,"seed":7}` (a flat object).
//!
//! Validation happens on entry ([`DetectorSpec::parse`] /
//! [`DetectorSpec::from_json`]) *and* again in [`DetectorSpec::build`],
//! so a hand-assembled spec cannot bypass the knob rules: unknown
//! algorithms list the registry, knobs not accepted by the chosen
//! algorithm list the accepted set, and out-of-domain values (negative
//! `gamma`, zero `ensemble`) are rejected.

use crate::algorithm::CommunityDetector;
use crate::moves::MoveStrategy;
use crate::{Cggc, Cnm, Epp, EppIterated, Louvain, Pam, Plm, Plp, Rg};
use parcom_obs::json::{self, Value};

/// Ensemble size used when a spec names an ensemble algorithm without an
/// explicit `ensemble` knob (the paper's default configuration).
pub const DEFAULT_ENSEMBLE: usize = 4;

/// A tunable accepted by some registered algorithms. `seed` is universal
/// (every detector implements [`CommunityDetector::set_seed`], if only as
/// a no-op) and therefore not listed per algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// Ensemble size (`epp`, `eppr`, `eml`, `cggc`, `cggci`).
    Ensemble,
    /// Modularity resolution γ (`plm`, `plmr`, `rg`).
    Gamma,
    /// PLM move-phase strategy `racy|coloring` (`plm`, `plmr`, and
    /// forwarded to the PLM final of `epp`/`eppr`); see DESIGN.md §14.
    Move,
}

impl Knob {
    /// The wire name of the knob (string form key, JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Knob::Ensemble => "ensemble",
            Knob::Gamma => "gamma",
            Knob::Move => "move",
        }
    }
}

/// One registered algorithm: its canonical name, a coarse family label
/// (used by CI to pick one representative per family), the knobs it
/// accepts beyond the universal `seed`, and its build function.
pub struct AlgoInfo {
    /// Canonical wire name (`plp`, `plm`, ...).
    pub name: &'static str,
    /// Coarse family: `propagation`, `louvain`, `ensemble`, `matching`
    /// or `agglomeration`.
    pub family: &'static str,
    /// One-line description (usage text, serve introspection).
    pub summary: &'static str,
    /// Knobs this algorithm accepts (besides `seed`).
    pub knobs: &'static [Knob],
    build: fn(&DetectorSpec) -> Box<dyn CommunityDetector + Send>,
}

impl AlgoInfo {
    /// Whether this algorithm accepts `knob`.
    pub fn accepts(&self, knob: Knob) -> bool {
        self.knobs.contains(&knob)
    }
}

/// Every constructible algorithm. The CLI's `--algo`, serve's
/// `spec.algo`, usage text and error messages all derive from this table;
/// adding an algorithm here is the *whole* registration.
pub const REGISTRY: &[AlgoInfo] = &[
    AlgoInfo {
        name: "plp",
        family: "propagation",
        summary: "parallel label propagation (§III-A)",
        knobs: &[],
        build: |_| Box::new(Plp::new()),
    },
    AlgoInfo {
        name: "plm",
        family: "louvain",
        summary: "parallel Louvain method (§III-B)",
        knobs: &[Knob::Gamma, Knob::Move],
        build: |s| {
            Box::new(Plm {
                gamma: s.gamma.unwrap_or(1.0),
                move_strategy: s.move_strategy.unwrap_or_default(),
                ..Plm::default()
            })
        },
    },
    AlgoInfo {
        name: "plmr",
        family: "louvain",
        summary: "PLM with per-level refinement (§III-C)",
        knobs: &[Knob::Gamma, Knob::Move],
        build: |s| {
            Box::new(Plm {
                refine: true,
                gamma: s.gamma.unwrap_or(1.0),
                move_strategy: s.move_strategy.unwrap_or_default(),
                ..Plm::default()
            })
        },
    },
    AlgoInfo {
        name: "epp",
        family: "ensemble",
        summary: "ensemble preprocessing, PLP cores + PLM final (§III-D)",
        knobs: &[Knob::Ensemble, Knob::Move],
        build: |s| {
            Box::new(Epp::plp_plm_with(
                s.ensemble.unwrap_or(DEFAULT_ENSEMBLE),
                s.move_strategy.unwrap_or_default(),
            ))
        },
    },
    AlgoInfo {
        name: "eppr",
        family: "ensemble",
        summary: "ensemble preprocessing with PLMR final",
        knobs: &[Knob::Ensemble, Knob::Move],
        build: |s| {
            Box::new(Epp::plp_plmr_with(
                s.ensemble.unwrap_or(DEFAULT_ENSEMBLE),
                s.move_strategy.unwrap_or_default(),
            ))
        },
    },
    AlgoInfo {
        name: "eml",
        family: "ensemble",
        summary: "iterated ensemble multilevel",
        knobs: &[Knob::Ensemble],
        build: |s| Box::new(EppIterated::new(s.ensemble.unwrap_or(DEFAULT_ENSEMBLE))),
    },
    AlgoInfo {
        name: "louvain",
        family: "louvain",
        summary: "original sequential Louvain (§V-E a)",
        knobs: &[],
        build: |_| Box::new(Louvain::new()),
    },
    AlgoInfo {
        name: "pam",
        family: "matching",
        summary: "CLU_TBB-like parallel matching agglomeration (§V-E b)",
        knobs: &[],
        build: |_| Box::new(Pam::new()),
    },
    AlgoInfo {
        name: "cel",
        family: "matching",
        summary: "CEL-like plain matching agglomeration",
        knobs: &[],
        build: |_| Box::new(Pam::cel()),
    },
    AlgoInfo {
        name: "cnm",
        family: "agglomeration",
        summary: "globally greedy agglomeration (§II)",
        knobs: &[],
        build: |_| Box::new(Cnm::new()),
    },
    AlgoInfo {
        name: "rg",
        family: "agglomeration",
        summary: "randomized greedy agglomeration (§V-E c)",
        knobs: &[Knob::Gamma],
        build: |s| {
            Box::new(Rg {
                gamma: s.gamma.unwrap_or(1.0),
                ..Rg::default()
            })
        },
    },
    AlgoInfo {
        name: "cggc",
        family: "ensemble",
        summary: "core groups ensemble over RG",
        knobs: &[Knob::Ensemble],
        build: |s| Box::new(Cggc::new(s.ensemble.unwrap_or(DEFAULT_ENSEMBLE))),
    },
    AlgoInfo {
        name: "cggci",
        family: "ensemble",
        summary: "iterated core groups ensemble",
        knobs: &[Knob::Ensemble],
        build: |s| Box::new(Cggc::iterated(s.ensemble.unwrap_or(DEFAULT_ENSEMBLE))),
    },
];

/// The registry entry for `name`, if registered.
pub fn lookup(name: &str) -> Option<&'static AlgoInfo> {
    REGISTRY.iter().find(|a| a.name == name)
}

/// Canonical algorithm names, in registry order.
pub fn algorithm_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|a| a.name)
}

/// The names joined with `|`, for usage strings.
pub fn algorithm_list() -> String {
    algorithm_names().collect::<Vec<_>>().join("|")
}

/// Why a spec failed to parse, validate or build.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The named algorithm is not in the registry. The message enumerates
    /// every registered name, so front ends never hand-maintain the list.
    UnknownAlgo {
        /// The rejected name.
        name: String,
    },
    /// The key is not a knob the chosen algorithm accepts.
    UnknownKnob {
        /// The chosen algorithm.
        algo: &'static str,
        /// The rejected key.
        key: String,
    },
    /// A knob value failed to parse or lies outside its domain.
    BadValue {
        /// The knob in question.
        key: String,
        /// What was wrong with the value.
        message: String,
    },
    /// The input is not in the `algo[:k=v,...]` / flat-JSON-object shape.
    Malformed(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownAlgo { name } => {
                write!(
                    f,
                    "unknown algorithm `{name}` (valid: {})",
                    algorithm_names().collect::<Vec<_>>().join(", ")
                )
            }
            SpecError::UnknownKnob { algo, key } => {
                let mut accepted: Vec<&str> = vec!["seed"];
                if let Some(info) = lookup(algo) {
                    accepted.extend(info.knobs.iter().map(|k| k.name()));
                }
                accepted.sort_unstable();
                write!(
                    f,
                    "algorithm `{algo}` accepts no knob `{key}` (accepted: {})",
                    accepted.join(", ")
                )
            }
            SpecError::BadValue { key, message } => {
                write!(f, "bad value for `{key}`: {message}")
            }
            SpecError::Malformed(msg) => write!(f, "malformed detector spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A declarative detector request: the algorithm plus its knob settings.
/// `None` knobs mean "the algorithm's default". Construct via
/// [`DetectorSpec::new`] + the `with_*` setters, or parse a wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorSpec {
    /// Canonical algorithm name (a [`REGISTRY`] entry's name).
    pub algo: &'static str,
    /// Seed applied through [`CommunityDetector::set_seed`] after
    /// construction. `None` leaves the detector's default seed.
    pub seed: Option<u64>,
    /// Modularity resolution γ (only for algorithms accepting it).
    pub gamma: Option<f64>,
    /// Ensemble size (only for ensemble algorithms).
    pub ensemble: Option<usize>,
    /// PLM move-phase strategy (only for PLM-backed algorithms).
    pub move_strategy: Option<MoveStrategy>,
}

impl DetectorSpec {
    /// A spec for `algo` with every knob at its default. Errors when
    /// `algo` is not registered.
    pub fn new(algo: &str) -> Result<Self, SpecError> {
        let info = lookup(algo).ok_or_else(|| SpecError::UnknownAlgo { name: algo.into() })?;
        Ok(Self {
            algo: info.name,
            seed: None,
            gamma: None,
            ensemble: None,
            move_strategy: None,
        })
    }

    /// Sets the seed knob.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the γ knob.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// Sets the ensemble-size knob.
    pub fn with_ensemble(mut self, ensemble: usize) -> Self {
        self.ensemble = Some(ensemble);
        self
    }

    /// Sets the PLM move-phase strategy knob.
    pub fn with_move(mut self, strategy: MoveStrategy) -> Self {
        self.move_strategy = Some(strategy);
        self
    }

    /// The registry entry this spec names.
    pub fn info(&self) -> Result<&'static AlgoInfo, SpecError> {
        lookup(self.algo).ok_or_else(|| SpecError::UnknownAlgo {
            name: self.algo.into(),
        })
    }

    /// Checks knob applicability and value domains against the registry.
    pub fn validate(&self) -> Result<(), SpecError> {
        let info = self.info()?;
        let set: [(Knob, bool); 3] = [
            (Knob::Gamma, self.gamma.is_some()),
            (Knob::Ensemble, self.ensemble.is_some()),
            (Knob::Move, self.move_strategy.is_some()),
        ];
        for (knob, is_set) in set {
            if is_set && !info.accepts(knob) {
                return Err(SpecError::UnknownKnob {
                    algo: info.name,
                    key: knob.name().into(),
                });
            }
        }
        if let Some(g) = self.gamma {
            if !g.is_finite() || g < 0.0 {
                return Err(SpecError::BadValue {
                    key: "gamma".into(),
                    message: format!("γ must be finite and non-negative, got {g}"),
                });
            }
        }
        if self.ensemble == Some(0) {
            return Err(SpecError::BadValue {
                key: "ensemble".into(),
                message: "ensemble size must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Builds the detector: validates, constructs through the registry,
    /// and applies the seed. This is the single construction path shared
    /// by the CLI and `parcom-serve`.
    pub fn build(&self) -> Result<Box<dyn CommunityDetector + Send>, SpecError> {
        self.validate()?;
        let info = self.info()?;
        let mut detector = (info.build)(self);
        if let Some(seed) = self.seed {
            detector.set_seed(seed);
        }
        Ok(detector)
    }

    /// Parses the string wire form: `algo` or `algo:knob=value,...`.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Malformed("empty spec".into()));
        }
        if s.starts_with('{') {
            // convenience: a JSON object is accepted wherever a string
            // spec is (the CLI can take either through one flag)
            return Self::parse_json(s);
        }
        let (algo, rest) = match s.split_once(':') {
            Some((a, r)) => (a.trim(), Some(r)),
            None => (s, None),
        };
        let mut spec = Self::new(algo)?;
        if let Some(rest) = rest {
            for pair in rest.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(SpecError::Malformed(format!(
                        "expected `knob=value`, got `{pair}`"
                    )));
                };
                spec.set_knob(key.trim(), value.trim())?;
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Parses the JSON wire form: a flat object with an `"algo"` key and
    /// knob keys.
    pub fn parse_json(s: &str) -> Result<Self, SpecError> {
        let v = json::parse(s).map_err(SpecError::Malformed)?;
        Self::from_json(&v)
    }

    /// Builds a spec from an already-parsed JSON value (serve request
    /// bodies embed the spec as a sub-object). Also accepts a JSON string
    /// holding the string wire form, so clients may send
    /// `"spec": "plm:gamma=1.5"` or `"spec": {"algo":"plm","gamma":1.5}`
    /// interchangeably.
    pub fn from_json(v: &Value) -> Result<Self, SpecError> {
        if let Some(s) = v.as_str() {
            return Self::parse(s);
        }
        let entries = v
            .entries()
            .ok_or_else(|| SpecError::Malformed("spec must be an object or a string".into()))?;
        let algo = v
            .get("algo")
            .and_then(Value::as_str)
            .ok_or_else(|| SpecError::Malformed("spec object needs a string `algo` key".into()))?;
        let mut spec = Self::new(algo)?;
        for (key, value) in entries {
            if key == "algo" {
                continue;
            }
            let raw = match value {
                Value::String(s) => s.clone(),
                Value::Number(n) => format!("{n}"),
                Value::Bool(b) => format!("{b}"),
                other => {
                    return Err(SpecError::BadValue {
                        key: key.clone(),
                        message: format!("expected a scalar, got {other:?}"),
                    })
                }
            };
            spec.set_knob(key, &raw)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Sets one knob from its wire key and raw value. Knob applicability
    /// is checked immediately so error messages carry the algorithm.
    fn set_knob(&mut self, key: &str, raw: &str) -> Result<(), SpecError> {
        let info = self.info()?;
        let bad = |message: String| SpecError::BadValue {
            key: key.into(),
            message,
        };
        match key {
            "seed" => {
                self.seed = Some(
                    raw.parse()
                        .map_err(|_| bad(format!("expected an unsigned integer, got `{raw}`")))?,
                );
            }
            "gamma" if info.accepts(Knob::Gamma) => {
                self.gamma = Some(
                    raw.parse()
                        .map_err(|_| bad(format!("expected a number, got `{raw}`")))?,
                );
            }
            "ensemble" if info.accepts(Knob::Ensemble) => {
                self.ensemble = Some(
                    raw.parse()
                        .map_err(|_| bad(format!("expected an unsigned integer, got `{raw}`")))?,
                );
            }
            "move" if info.accepts(Knob::Move) => {
                self.move_strategy = Some(MoveStrategy::from_wire(raw).map_err(bad)?);
            }
            _ => {
                return Err(SpecError::UnknownKnob {
                    algo: info.name,
                    key: key.into(),
                })
            }
        }
        Ok(())
    }

    /// The canonical JSON wire form (a flat object; set knobs only).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"algo\":");
        json::write_str(&mut out, self.algo);
        if let Some(e) = self.ensemble {
            out.push_str(&format!(",\"ensemble\":{e}"));
        }
        if let Some(g) = self.gamma {
            out.push_str(",\"gamma\":");
            json::write_f64(&mut out, g);
        }
        if let Some(m) = self.move_strategy {
            out.push_str(",\"move\":");
            json::write_str(&mut out, m.wire_name());
        }
        if let Some(s) = self.seed {
            out.push_str(&format!(",\"seed\":{s}"));
        }
        out.push('}');
        out
    }
}

impl std::fmt::Display for DetectorSpec {
    /// The canonical string wire form: knobs in `ensemble`, `gamma`,
    /// `move`, `seed` order, set knobs only.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.algo)?;
        let mut sep = ':';
        if let Some(e) = self.ensemble {
            write!(f, "{sep}ensemble={e}")?;
            sep = ',';
        }
        if let Some(g) = self.gamma {
            write!(f, "{sep}gamma={g}")?;
            sep = ',';
        }
        if let Some(m) = self.move_strategy {
            write!(f, "{sep}move={m}")?;
            sep = ',';
        }
        if let Some(s) = self.seed {
            write!(f, "{sep}seed={s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_builds_with_defaults() {
        for info in REGISTRY {
            let spec = DetectorSpec::new(info.name).unwrap();
            let detector = spec.build().unwrap();
            assert!(!detector.name().is_empty(), "{}", info.name);
        }
    }

    #[test]
    fn unknown_algo_lists_the_registry() {
        let err = DetectorSpec::new("metropolis").unwrap_err();
        let msg = err.to_string();
        for name in algorithm_names() {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn string_form_parses_knobs() {
        let spec = DetectorSpec::parse("plm:gamma=1.5,seed=7").unwrap();
        assert_eq!(spec.algo, "plm");
        assert_eq!(spec.gamma, Some(1.5));
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.to_string(), "plm:gamma=1.5,seed=7");
    }

    #[test]
    fn inapplicable_knob_is_rejected_with_accepted_set() {
        let err = DetectorSpec::parse("plp:gamma=1.5").unwrap_err();
        assert!(matches!(err, SpecError::UnknownKnob { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.ends_with("(accepted: seed)"), "{msg}");
    }

    #[test]
    fn hand_assembled_specs_cannot_bypass_validation() {
        let spec = DetectorSpec::new("cnm").unwrap().with_ensemble(8);
        assert!(matches!(
            spec.build().err().unwrap(),
            SpecError::UnknownKnob { .. }
        ));
        let spec = DetectorSpec::new("plm").unwrap().with_gamma(-1.0);
        assert!(matches!(
            spec.build().err().unwrap(),
            SpecError::BadValue { .. }
        ));
    }

    #[test]
    fn json_form_round_trips() {
        let spec = DetectorSpec::parse("cggc:ensemble=8,seed=3").unwrap();
        assert_eq!(DetectorSpec::parse_json(&spec.to_json()).unwrap(), spec);
        // and the string-inside-JSON convenience
        let v = json::parse("\"cggc:ensemble=8,seed=3\"").unwrap();
        assert_eq!(DetectorSpec::from_json(&v).unwrap(), spec);
    }

    #[test]
    fn built_names_match_the_legacy_dispatch() {
        // the names the old CLI `match` produced, pinned so the registry
        // refactor cannot silently change what runs
        let expect = [
            ("plp", "PLP"),
            ("plm", "PLM"),
            ("plmr", "PLMR"),
            ("louvain", "Louvain"),
            ("cnm", "CNM"),
            ("rg", "RG"),
        ];
        for (algo, name) in expect {
            let built = DetectorSpec::new(algo).unwrap().build().unwrap();
            assert_eq!(built.name(), name);
        }
    }
}

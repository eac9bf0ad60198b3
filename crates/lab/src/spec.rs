//! `ScenarioSpec`: the declarative experiment description.
//!
//! A spec names a scenario *kind* (which executor runs a trial), the
//! kind-specific parameters, a list of config variants (named override
//! sets), the seed list and repetition count (the trial matrix is
//! variant × seed × rep), an optional declarative fault schedule, the
//! metrics-registry names to lift into the analysis table, the CI gates,
//! and the artifact/baseline paths. Serialization is symmetric by
//! construction: `to_json` emits every field in a fixed order through
//! the canonical emitter, so `spec → JSON → spec → JSON` is
//! byte-identical (proptest-enforced) and `sha256(to_json)` is a stable
//! identity the trial journal can trust across resumes.

use crate::json::Json;

/// Ordered kind-specific parameter map. Order is preserved from the
/// authored spec (it is part of the spec's canonical bytes), lookups are
/// by key with last-write-wins so variant overrides can shadow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Params(pub Vec<(String, Json)>);

impl Params {
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `default` when `key` is absent; an error naming the key, its value
    /// and the expected type when it is present with another type — a
    /// copied spec with `"minutes": 30.0` must not silently run 60.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        default: T,
        expected: &str,
        convert: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => convert(v)
                .ok_or_else(|| format!("param '{key}' is {}, expected {expected}", v.emit())),
        }
    }

    pub fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.typed(key, default, "an unsigned integer", Json::as_u64)
    }

    pub fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.typed(key, default, "an unsigned integer", Json::as_usize)
    }

    pub fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        self.typed(key, default, "a number", Json::as_f64)
    }

    pub fn bool(&self, key: &str, default: bool) -> Result<bool, String> {
        self.typed(key, default, "a boolean", Json::as_bool)
    }

    pub fn str<'a>(&'a self, key: &str, default: &'a str) -> Result<&'a str, String> {
        self.typed(key, default, "a string", Json::as_str)
    }

    /// `self` with `overrides` appended (appended entries shadow on
    /// lookup; emission order keeps base-then-override, so the merged
    /// params are themselves canonical).
    pub fn merged(&self, overrides: &Params) -> Params {
        let mut out = self.clone();
        out.0.extend(overrides.0.iter().cloned());
        out
    }

    fn to_json(&self) -> Json {
        Json::Obj(self.0.clone())
    }

    fn from_json(v: &Json, what: &str) -> Result<Params, String> {
        match v {
            Json::Obj(m) => Ok(Params(m.clone())),
            _ => Err(format!("{what} must be an object")),
        }
    }
}

/// One named configuration variant: a set of parameter overrides applied
/// over the spec-level params for every trial of this variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    pub name: String,
    pub overrides: Params,
}

/// One entry of a declarative fault schedule, applied by the runner on
/// top of whatever seeded faults the scenario kind generates itself.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    NodeDown { at_s: u64, for_s: u64, site: usize },
    NameServiceDown { at_s: u64, for_s: u64 },
    WireCorrupt { at_s: u64, for_s: u64, site: usize },
}

impl FaultSpec {
    fn to_json(&self) -> Json {
        let (at, dur, kind, site) = match self {
            FaultSpec::NodeDown { at_s, for_s, site } => (*at_s, *for_s, "node_down", Some(*site)),
            FaultSpec::NameServiceDown { at_s, for_s } => {
                (*at_s, *for_s, "name_service_down", None)
            }
            FaultSpec::WireCorrupt { at_s, for_s, site } => {
                (*at_s, *for_s, "wire_corrupt", Some(*site))
            }
        };
        let mut m = vec![
            ("at_s".to_string(), Json::Int(at as i128)),
            ("for_s".to_string(), Json::Int(dur as i128)),
            ("kind".to_string(), Json::str(kind)),
        ];
        if let Some(s) = site {
            m.push(("site".to_string(), Json::Int(s as i128)));
        }
        Json::Obj(m)
    }

    fn from_json(v: &Json) -> Result<FaultSpec, String> {
        let at_s = v
            .get("at_s")
            .and_then(Json::as_u64)
            .ok_or("fault needs integer at_s")?;
        let for_s = v
            .get("for_s")
            .and_then(Json::as_u64)
            .ok_or("fault needs integer for_s")?;
        let site = || {
            v.get("site")
                .and_then(Json::as_usize)
                .ok_or("fault kind needs a site index".to_string())
        };
        match v.get("kind").and_then(Json::as_str) {
            Some("node_down") => Ok(FaultSpec::NodeDown {
                at_s,
                for_s,
                site: site()?,
            }),
            Some("name_service_down") => Ok(FaultSpec::NameServiceDown { at_s, for_s }),
            Some("wire_corrupt") => Ok(FaultSpec::WireCorrupt {
                at_s,
                for_s,
                site: site()?,
            }),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// Reference to a metric in the analysis table; `variant: None` means
/// "the row being evaluated" (within-trial ratio).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRef {
    pub metric: String,
    pub variant: Option<String>,
}

impl MetricRef {
    fn to_json(&self) -> Json {
        let mut m = vec![("metric".to_string(), Json::str(&self.metric))];
        if let Some(v) = &self.variant {
            m.push(("variant".to_string(), Json::str(v)));
        }
        Json::Obj(m)
    }

    fn from_json(v: &Json) -> Result<MetricRef, String> {
        Ok(MetricRef {
            metric: v
                .get("metric")
                .and_then(Json::as_str)
                .ok_or("metric ref needs a metric name")?
                .to_string(),
            variant: v.get("variant").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// A declared CI gate, evaluated over the finished analysis table (see
/// `gate.rs`). Gates replace per-bin asserts: a spec says what must hold,
/// the evaluator says what happened.
#[derive(Debug, Clone, PartialEq)]
pub enum GateSpec {
    /// Across every variant of the same (seed, rep), `metric` must be
    /// identical — the bitwise-equivalence tripwire.
    Equivalence { metric: String },
    /// Per trial: metrics `a` and `b` must be equal.
    MetricEq {
        a: String,
        b: String,
        variants: Option<Vec<String>>,
    },
    /// Per trial: `metric` must be present and non-zero.
    NonZero {
        metric: String,
        variants: Option<Vec<String>>,
    },
    /// Per trial: `metric` must be `<= max`.
    MaxValue {
        metric: String,
        max: f64,
        variants: Option<Vec<String>>,
    },
    /// Per (seed, rep): `numer / denom >= min`.
    MinRatio {
        numer: MetricRef,
        denom: MetricRef,
        min: f64,
        variants: Option<Vec<String>>,
    },
    /// Per trial: timing metric must not exceed the baseline value for
    /// the same variant by more than `max_pct` percent. A missing
    /// baseline is an explicit error, never a silent pass.
    WallRegression { metric: String, max_pct: f64 },
    /// Per trial: `metric` must equal the baseline row with the same
    /// (variant, seed, rep), in canonical rendering. For work counts and
    /// digests, which no host can move; a missing row is an error.
    BaselineEq { metric: String },
}

fn variants_to_json(m: &mut Vec<(String, Json)>, v: &Option<Vec<String>>) {
    if let Some(list) = v {
        m.push((
            "variants".to_string(),
            Json::Arr(list.iter().map(Json::str).collect()),
        ));
    }
}

fn variants_from_json(v: &Json) -> Result<Option<Vec<String>>, String> {
    match v.get("variants") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(a)) => a
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "gate variants must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        _ => Err("gate variants must be an array".into()),
    }
}

impl GateSpec {
    fn to_json(&self) -> Json {
        let mut m: Vec<(String, Json)> = Vec::new();
        match self {
            GateSpec::Equivalence { metric } => {
                m.push(("gate".into(), Json::str("equivalence")));
                m.push(("metric".into(), Json::str(metric)));
            }
            GateSpec::MetricEq { a, b, variants } => {
                m.push(("gate".into(), Json::str("metric_eq")));
                m.push(("a".into(), Json::str(a)));
                m.push(("b".into(), Json::str(b)));
                variants_to_json(&mut m, variants);
            }
            GateSpec::NonZero { metric, variants } => {
                m.push(("gate".into(), Json::str("nonzero")));
                m.push(("metric".into(), Json::str(metric)));
                variants_to_json(&mut m, variants);
            }
            GateSpec::MaxValue {
                metric,
                max,
                variants,
            } => {
                m.push(("gate".into(), Json::str("max_value")));
                m.push(("metric".into(), Json::str(metric)));
                m.push(("max".into(), Json::Float(*max)));
                variants_to_json(&mut m, variants);
            }
            GateSpec::MinRatio {
                numer,
                denom,
                min,
                variants,
            } => {
                m.push(("gate".into(), Json::str("min_ratio")));
                m.push(("numer".into(), numer.to_json()));
                m.push(("denom".into(), denom.to_json()));
                m.push(("min".into(), Json::Float(*min)));
                variants_to_json(&mut m, variants);
            }
            GateSpec::WallRegression { metric, max_pct } => {
                m.push(("gate".into(), Json::str("wall_regression")));
                m.push(("metric".into(), Json::str(metric)));
                m.push(("max_pct".into(), Json::Float(*max_pct)));
            }
            GateSpec::BaselineEq { metric } => {
                m.push(("gate".into(), Json::str("baseline_eq")));
                m.push(("metric".into(), Json::str(metric)));
            }
        }
        Json::Obj(m)
    }

    fn from_json(v: &Json) -> Result<GateSpec, String> {
        let field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("gate needs string field '{k}'"))
        };
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("gate needs numeric field '{k}'"))
        };
        match v.get("gate").and_then(Json::as_str) {
            Some("equivalence") => Ok(GateSpec::Equivalence {
                metric: field("metric")?,
            }),
            Some("metric_eq") => Ok(GateSpec::MetricEq {
                a: field("a")?,
                b: field("b")?,
                variants: variants_from_json(v)?,
            }),
            Some("nonzero") => Ok(GateSpec::NonZero {
                metric: field("metric")?,
                variants: variants_from_json(v)?,
            }),
            Some("max_value") => Ok(GateSpec::MaxValue {
                metric: field("metric")?,
                max: num("max")?,
                variants: variants_from_json(v)?,
            }),
            Some("min_ratio") => Ok(GateSpec::MinRatio {
                numer: MetricRef::from_json(v.get("numer").ok_or("min_ratio needs numer")?)?,
                denom: MetricRef::from_json(v.get("denom").ok_or("min_ratio needs denom")?)?,
                min: num("min")?,
                variants: variants_from_json(v)?,
            }),
            Some("wall_regression") => Ok(GateSpec::WallRegression {
                metric: field("metric")?,
                max_pct: num("max_pct")?,
            }),
            Some("baseline_eq") => Ok(GateSpec::BaselineEq {
                metric: field("metric")?,
            }),
            other => Err(format!("unknown gate {other:?}")),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            GateSpec::Equivalence { metric } => format!("equivalence({metric})"),
            GateSpec::MetricEq { a, b, .. } => format!("metric_eq({a} == {b})"),
            GateSpec::NonZero { metric, .. } => format!("nonzero({metric})"),
            GateSpec::MaxValue { metric, max, .. } => format!("max_value({metric} <= {max})"),
            GateSpec::MinRatio {
                numer, denom, min, ..
            } => format!("min_ratio({} / {} >= {min})", numer.metric, denom.metric),
            GateSpec::WallRegression { metric, max_pct } => {
                format!("wall_regression({metric} <= baseline +{max_pct}%)")
            }
            GateSpec::BaselineEq { metric } => format!("baseline_eq({metric})"),
        }
    }
}

/// The declarative experiment description — see module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    pub name: String,
    /// Which executor runs a trial (`user_scaling`, `request_pipeline`,
    /// `lifeline`, `soak_faults`, `soak_corruption`, `campaign_soak`,
    /// `rm_scaling`, `rm_profile`, or one of the paper's kinds in
    /// `exec::paper`).
    pub kind: String,
    pub description: String,
    pub seeds: Vec<u64>,
    pub reps: u32,
    pub params: Params,
    pub variants: Vec<Variant>,
    pub faults: Vec<FaultSpec>,
    /// Metrics-registry names to lift into every trial row (prefixed
    /// `reg.` in the table).
    pub metrics: Vec<String>,
    pub gates: Vec<GateSpec>,
    /// Where the committed `BENCH_*.json` artifact is written.
    pub artifact: Option<String>,
    /// Committed baseline consulted by `wall_regression` and
    /// `baseline_eq` gates.
    pub baseline: Option<String>,
}

impl ScenarioSpec {
    /// Canonical JSON — fixed field order, every field present.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("kind", Json::str(&self.kind)),
            ("description", Json::str(&self.description)),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::Int(s as i128)).collect()),
            ),
            ("reps", Json::Int(self.reps as i128)),
            ("params", self.params.to_json()),
            (
                "variants",
                Json::Arr(
                    self.variants
                        .iter()
                        .map(|v| {
                            Json::obj(vec![
                                ("name", Json::str(&v.name)),
                                ("overrides", v.overrides.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "faults",
                Json::Arr(self.faults.iter().map(FaultSpec::to_json).collect()),
            ),
            (
                "metrics",
                Json::Arr(self.metrics.iter().map(Json::str).collect()),
            ),
            (
                "gates",
                Json::Arr(self.gates.iter().map(GateSpec::to_json).collect()),
            ),
            (
                "artifact",
                self.artifact.as_ref().map_or(Json::Null, Json::str),
            ),
            (
                "baseline",
                self.baseline.as_ref().map_or(Json::Null, Json::str),
            ),
        ])
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().emit()
    }

    /// Stable identity: sha256 over the canonical bytes. The journal
    /// refuses to reuse trials recorded under a different spec hash.
    pub fn sha256_hex(&self) -> String {
        crate::sha_hex(&self.to_json_string())
    }

    pub fn from_json(v: &Json) -> Result<ScenarioSpec, String> {
        let req_str = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("spec needs string field '{k}'"))
        };
        let opt_str =
            |k: &str| -> Option<String> { v.get(k).and_then(Json::as_str).map(str::to_string) };
        let seeds = v
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or("spec needs a seeds array")?
            .iter()
            .map(|s| s.as_u64().ok_or("seeds must be unsigned integers"))
            .collect::<Result<Vec<_>, _>>()?;
        let variants = match v.get("variants") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(a)) => a
                .iter()
                .map(|e| {
                    Ok(Variant {
                        name: e
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("variant needs a name")?
                            .to_string(),
                        overrides: match e.get("overrides") {
                            None | Some(Json::Null) => Params::default(),
                            Some(o) => Params::from_json(o, "variant overrides")?,
                        },
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("variants must be an array".into()),
        };
        let faults = match v.get("faults") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(a)) => a
                .iter()
                .map(FaultSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("faults must be an array".into()),
        };
        let metrics = match v.get("metrics") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(a)) => a
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "metrics must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("metrics must be an array".into()),
        };
        let gates = match v.get("gates") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(a)) => a
                .iter()
                .map(GateSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("gates must be an array".into()),
        };
        let spec = ScenarioSpec {
            name: req_str("name")?,
            kind: req_str("kind")?,
            description: opt_str("description").unwrap_or_default(),
            seeds,
            reps: v.get("reps").and_then(Json::as_u64).unwrap_or(1) as u32,
            params: match v.get("params") {
                None | Some(Json::Null) => Params::default(),
                Some(p) => Params::from_json(p, "params")?,
            },
            variants,
            faults,
            metrics,
            gates,
            artifact: opt_str("artifact"),
            baseline: opt_str("baseline"),
        };
        spec.validate()?;
        Ok(spec)
    }

    pub fn from_json_str(text: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::from_json(&Json::parse(text)?)
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("spec name must be non-empty".into());
        }
        if self.kind.is_empty() {
            return Err("spec kind must be non-empty".into());
        }
        if self.seeds.is_empty() {
            return Err("spec needs at least one seed".into());
        }
        if self.reps == 0 {
            return Err("reps must be >= 1".into());
        }
        let mut names: Vec<&str> = self.variants.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err("variant names must be unique".into());
        }
        if self.variants.iter().any(|v| v.name.is_empty()) {
            return Err("variant names must be non-empty".into());
        }
        Ok(())
    }

    /// The effective variant list: an empty `variants` array means one
    /// implicit variant named `base` with no overrides.
    pub fn effective_variants(&self) -> Vec<Variant> {
        if self.variants.is_empty() {
            vec![Variant {
                name: "base".into(),
                overrides: Params::default(),
            }]
        } else {
            self.variants.clone()
        }
    }

    /// Load by builtin name or filesystem path (a path wins if the file
    /// exists; names must match a scenario shipped under
    /// `crates/lab/scenarios/`).
    pub fn load(name_or_path: &str) -> Result<ScenarioSpec, String> {
        if std::path::Path::new(name_or_path).is_file() {
            let text = std::fs::read_to_string(name_or_path)
                .map_err(|e| format!("read {name_or_path}: {e}"))?;
            return ScenarioSpec::from_json_str(&text).map_err(|e| format!("{name_or_path}: {e}"));
        }
        builtin(name_or_path)
            .ok_or_else(|| {
                format!(
                    "unknown scenario '{name_or_path}' (builtins: {})",
                    builtin_names().join(", ")
                )
            })
            .and_then(|text| {
                ScenarioSpec::from_json_str(text).map_err(|e| format!("{name_or_path}: {e}"))
            })
    }
}

/// Specs shipped with the crate, compiled in so bins and CI work from any
/// working directory: each name is the stem of its file under
/// `crates/lab/scenarios/`, the editable source of truth.
macro_rules! builtins {
    ($($name:literal),* $(,)?) => {
        &[$(($name, include_str!(concat!("../scenarios/", $name, ".json")))),*]
    };
}

const BUILTINS: &[(&str, &str)] = builtins![
    "user_scaling",
    "user_scaling_smoke",
    "request_pipeline",
    "lifeline",
    "soak_faults",
    "soak_corruption",
    "soak_corruption_smoke",
    "campaign_soak",
    "campaign_soak_smoke",
    "rm_scaling",
    "rm_scaling_smoke",
    "rm_profile",
    "rm_profile_smoke",
    "table1",
    "fig8",
    "sweep_parallel",
    "sweep_buffer",
    "sweep_stripes",
    "ablation_caching",
    "ablation_cpu",
    "replica_policies",
    "hrm_staging",
    "planner_spread",
    "nws_accuracy",
    "baselines",
    "extension_subsetting",
];

pub fn builtin(name: &str) -> Option<&'static str> {
    BUILTINS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
}

pub fn builtin_names() -> Vec<&'static str> {
    BUILTINS.iter().map(|(n, _)| *n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".into(),
            kind: "user_scaling".into(),
            description: "a demo".into(),
            seeds: vec![17, 23],
            reps: 2,
            params: Params(vec![
                ("n".into(), Json::Int(1000)),
                ("min_rate".into(), Json::Float(2.6e6)),
            ]),
            variants: vec![
                Variant {
                    name: "a".into(),
                    overrides: Params(vec![("n".into(), Json::Int(10))]),
                },
                Variant {
                    name: "b".into(),
                    overrides: Params::default(),
                },
            ],
            faults: vec![
                FaultSpec::NodeDown {
                    at_s: 140,
                    for_s: 30,
                    site: 2,
                },
                FaultSpec::NameServiceDown {
                    at_s: 200,
                    for_s: 20,
                },
            ],
            metrics: vec!["simnet.alloc.flow_solves".into()],
            gates: vec![
                GateSpec::Equivalence {
                    metric: "trace_sha256".into(),
                },
                GateSpec::WallRegression {
                    metric: "wall_ms".into(),
                    max_pct: 20.0,
                },
            ],
            artifact: Some("BENCH_demo.json".into()),
            baseline: None,
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let spec = sample();
        let j1 = spec.to_json_string();
        let spec2 = ScenarioSpec::from_json_str(&j1).unwrap();
        assert_eq!(spec, spec2);
        assert_eq!(j1, spec2.to_json_string());
        assert_eq!(spec.sha256_hex(), spec2.sha256_hex());
    }

    #[test]
    fn variant_overrides_shadow_on_lookup() {
        let spec = sample();
        let merged = spec.params.merged(&spec.variants[0].overrides);
        assert_eq!(merged.u64("n", 0), Ok(10));
        assert_eq!(merged.f64("min_rate", 0.0), Ok(2.6e6));
        let merged_b = spec.params.merged(&spec.variants[1].overrides);
        assert_eq!(merged_b.u64("n", 0), Ok(1000));
    }

    #[test]
    fn a_missing_param_defaults_and_a_mistyped_one_is_an_error() {
        let p = Params(vec![
            ("n".into(), Json::Int(-5)),
            ("s".into(), Json::str("30")),
        ]);
        assert_eq!(p.u64("absent", 60), Ok(60));
        assert_eq!(p.f64("n", 0.0), Ok(-5.0)); // an integer is a number
        assert_eq!(
            p.usize("n", 1),
            Err("param 'n' is -5, expected an unsigned integer".into())
        );
        assert!(p.u64("s", 60).is_err() && p.bool("s", false).is_err());
        assert!(p.str("n", "all").is_err());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = sample();
        s.seeds.clear();
        assert!(s.validate().is_err());
        let mut s = sample();
        s.variants[1].name = "a".into();
        assert!(s.validate().is_err());
        let mut s = sample();
        s.reps = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn builtins_all_parse_and_match_their_names() {
        for name in builtin_names() {
            let spec = ScenarioSpec::load(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(spec.name, name, "builtin file name must match spec name");
            // Canonicalization is stable for every shipped spec.
            let j = spec.to_json_string();
            assert_eq!(ScenarioSpec::from_json_str(&j).unwrap().to_json_string(), j);
        }
    }

    #[test]
    fn every_scenario_file_is_a_builtin_and_every_builtin_a_file() {
        // A listed name that has no file does not compile; this catches a
        // file nobody listed.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
        let mut stems: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        let mut names = builtin_names();
        names.sort_unstable();
        assert_eq!(stems, names, "crates/lab/scenarios/*.json vs BUILTINS");
    }

    /// A run whose gates pass rewrites its artifact, so two scenarios
    /// naming one file overwrite each other's evidence.
    #[test]
    fn no_two_builtins_name_the_same_artifact() {
        let mut writers = std::collections::BTreeMap::<String, Vec<&str>>::new();
        for name in builtin_names() {
            if let Some(path) = ScenarioSpec::load(name).unwrap().artifact {
                writers.entry(path).or_default().push(name);
            }
        }
        let shared: Vec<_> = writers.values().filter(|names| names.len() > 1).collect();
        assert!(
            shared.is_empty(),
            "one artifact, several writers: {shared:?}"
        );
    }

    #[test]
    fn implicit_base_variant() {
        let mut s = sample();
        s.variants.clear();
        let vs = s.effective_variants();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].name, "base");
    }
}

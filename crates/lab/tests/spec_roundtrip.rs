//! Property: `ScenarioSpec` serialization round-trips byte-identically —
//! `spec → JSON → spec → JSON` emits the same bytes (and therefore the
//! same sha256 identity), for arbitrary specs including fault schedules
//! and variant override sets. This is the contract the trial journal
//! leans on: the spec hash recorded next to a trial must mean the same
//! spec forever.
//!
//! The vendored proptest has no combinator strategies, so each case
//! takes one generated `u64` and expands it into a random spec through a
//! seeded `StdRng` — still fully deterministic per case.

use esg_lab::json::Json;
use esg_lab::spec::{FaultSpec, GateSpec, MetricRef, Params, ScenarioSpec, Variant};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const IDENT: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
/// String content deliberately spans every escaping path the canonical
/// emitter has: quotes, backslashes, control chars, multi-byte UTF-8.
const EXOTIC: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', ' ', 'é', 'ß', '中', '😀', 'a', 'Z', '7',
];

fn ident(rng: &mut StdRng, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len)
        .map(|_| IDENT[rng.gen_range(0usize..IDENT.len())] as char)
        .collect()
}

fn text(rng: &mut StdRng, max: usize) -> String {
    let len = rng.gen_range(0usize..=max);
    (0..len)
        .map(|_| EXOTIC[rng.gen_range(0usize..EXOTIC.len())])
        .collect()
}

fn value(rng: &mut StdRng) -> Json {
    match rng.gen_range(0u32..7) {
        0 => Json::Int(rng.gen::<i64>() as i128),
        1 => Json::Int(rng.gen_range(-1000i64..1000) as i128),
        // Finite floats only (JSON has no NaN/inf); include integral
        // values to exercise the emitter's `.0` suffix that keeps the
        // int/float distinction stable across a re-parse.
        2 => Json::Float(rng.gen_range(-1.0e9..1.0e9)),
        3 => Json::Float(rng.gen_range(-1.0e6f64..1.0e6).trunc()),
        4 => Json::Bool(rng.gen_bool(0.5)),
        _ => Json::Str(text(rng, 12)),
    }
}

fn params(rng: &mut StdRng, max_entries: usize) -> Params {
    let n = rng.gen_range(0usize..=max_entries);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Occasionally repeat a key: duplicates are legal (last write
        // wins on lookup) and are part of the canonical bytes.
        let key = if !out.is_empty() && rng.gen_bool(0.2) {
            let (k, _): &(String, Json) = &out[rng.gen_range(0usize..out.len())];
            k.clone()
        } else {
            ident(rng, 1, 10)
        };
        out.push((key, value(rng)));
    }
    Params(out)
}

fn fault(rng: &mut StdRng) -> FaultSpec {
    let at_s = rng.gen_range(0u64..5000);
    let for_s = rng.gen_range(1u64..600);
    match rng.gen_range(0u32..3) {
        0 => FaultSpec::NodeDown {
            at_s,
            for_s,
            site: rng.gen_range(0usize..8),
        },
        1 => FaultSpec::NameServiceDown { at_s, for_s },
        _ => FaultSpec::WireCorrupt {
            at_s,
            for_s,
            site: rng.gen_range(0usize..8),
        },
    }
}

fn metric_ref(rng: &mut StdRng) -> MetricRef {
    MetricRef {
        metric: ident(rng, 1, 14),
        variant: rng.gen_bool(0.5).then(|| ident(rng, 1, 8)),
    }
}

fn opt_variants(rng: &mut StdRng) -> Option<Vec<String>> {
    rng.gen_bool(0.4).then(|| {
        (0..rng.gen_range(1usize..=3))
            .map(|_| ident(rng, 1, 8))
            .collect()
    })
}

fn gate(rng: &mut StdRng) -> GateSpec {
    match rng.gen_range(0u32..7) {
        0 => GateSpec::Equivalence {
            metric: ident(rng, 1, 14),
        },
        1 => GateSpec::MetricEq {
            a: ident(rng, 1, 14),
            b: ident(rng, 1, 14),
            variants: opt_variants(rng),
        },
        2 => GateSpec::NonZero {
            metric: ident(rng, 1, 14),
            variants: opt_variants(rng),
        },
        3 => GateSpec::MaxValue {
            metric: ident(rng, 1, 14),
            max: rng.gen_range(-100.0..1.0e6),
            variants: opt_variants(rng),
        },
        4 => GateSpec::MinRatio {
            numer: metric_ref(rng),
            denom: metric_ref(rng),
            min: rng.gen_range(0.0..10.0),
            variants: opt_variants(rng),
        },
        5 => GateSpec::WallRegression {
            metric: ident(rng, 1, 14),
            max_pct: rng.gen_range(1.0..100.0),
        },
        _ => GateSpec::BaselineEq {
            metric: ident(rng, 1, 14),
        },
    }
}

fn arb_spec(rng: &mut StdRng) -> ScenarioSpec {
    let n_variants = rng.gen_range(0usize..=3);
    ScenarioSpec {
        name: ident(rng, 1, 16),
        kind: ident(rng, 1, 16),
        description: text(rng, 30),
        seeds: (0..rng.gen_range(1usize..=4)).map(|_| rng.gen()).collect(),
        reps: rng.gen_range(1u32..=3),
        params: params(rng, 5),
        variants: (0..n_variants)
            .map(|i| Variant {
                // Suffix keeps names unique, as validate() requires.
                name: format!("{}_{i}", ident(rng, 1, 8)),
                overrides: params(rng, 3),
            })
            .collect(),
        faults: (0..rng.gen_range(0usize..=4)).map(|_| fault(rng)).collect(),
        metrics: (0..rng.gen_range(0usize..=3))
            .map(|_| ident(rng, 1, 20))
            .collect(),
        gates: (0..rng.gen_range(0usize..=5)).map(|_| gate(rng)).collect(),
        artifact: rng
            .gen_bool(0.5)
            .then(|| format!("BENCH_{}.json", ident(rng, 1, 8))),
        baseline: rng
            .gen_bool(0.3)
            .then(|| format!("BENCH_{}.json", ident(rng, 1, 8))),
    }
}

proptest! {
    #[test]
    fn spec_roundtrip_is_byte_identical(master in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(master);
        let spec = arb_spec(&mut rng);

        let j1 = spec.to_json_string();
        let spec2 = match ScenarioSpec::from_json_str(&j1) {
            Ok(s) => s,
            Err(e) => return Err(proptest::TestCaseError::Fail(format!(
                "emitted spec JSON failed to parse: {e}\njson: {j1}"
            ))),
        };
        let j2 = spec2.to_json_string();
        prop_assert_eq!(&j1, &j2, "spec → JSON → spec → JSON must be byte-identical");
        prop_assert_eq!(&spec, &spec2, "parsed spec must equal the original");
        prop_assert_eq!(
            spec.sha256_hex(),
            spec2.sha256_hex(),
            "spec identity hash must survive the round trip"
        );
    }

    #[test]
    fn spec_hash_is_injective_over_reserialization(master in any::<u64>()) {
        // A second parse of the same bytes can never change the hash —
        // the journal's reuse check depends on exactly this.
        let mut rng = StdRng::seed_from_u64(master ^ 0x5eed_cafe);
        let spec = arb_spec(&mut rng);
        let j = spec.to_json_string();
        let reparsed = ScenarioSpec::from_json_str(&j).expect("roundtrip parses");
        prop_assert_eq!(
            esg_lab::sha_hex(&j),
            reparsed.sha256_hex(),
            "hash of emitted bytes must equal hash of reparsed spec"
        );
    }
}

//! Cross-crate property-based tests: invariants that must hold for *any*
//! generated circuit, any Trojan insertion, and any p-value fusion.
//!
//! Each property runs on [`CASES`] cases through the seeded runner in
//! `tests/support/cases.rs`; a failure names the case's seed.

#[path = "support/cases.rs"]
mod cases;

use cases::check;
use noodle::bench_gen::{families, insert_trojan, CircuitFamily, TrojanSpec};
use noodle::conformal::{Combiner, MondrianIcp};
use noodle::graph::{build_graph, graph_image, graph_stats};
use noodle::metrics::{brier_score, murphy_decomposition, roc_curve};
use noodle::tabular::extract_features;
use noodle::verilog::{parse, print_module};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: u64 = 48;

fn family(rng: &mut StdRng) -> CircuitFamily {
    CircuitFamily::ALL[rng.random_range(0..CircuitFamily::ALL.len())]
}

fn spec(rng: &mut StdRng) -> TrojanSpec {
    let all = TrojanSpec::all();
    all[rng.random_range(0..all.len())]
}

/// `(probability, outcome)` pairs, `len` drawn from `lengths`.
fn forecasts(rng: &mut StdRng, lengths: std::ops::Range<usize>) -> (Vec<f64>, Vec<bool>) {
    let len = rng.random_range(lengths);
    (0..len).map(|_| (rng.random_range(0.0f64..=1.0), rng.random::<bool>())).unzip()
}

/// Print → parse is a fixpoint for every generated circuit.
#[test]
fn print_parse_fixpoint() {
    check(CASES, |rng| {
        let family = family(rng);
        let mut rng = StdRng::seed_from_u64(rng.random_range(0u64..1000));
        let circuit = families::generate(family, "fixpoint_probe", &mut rng);
        let text = print_module(&circuit.module);
        let reparsed = parse(&text).expect("generated Verilog must parse");
        let reprinted = print_module(&reparsed.modules[0]);
        assert_eq!(text, reprinted);
    });
}

/// Trojan insertion always yields parseable Verilog whose features and
/// graph differ from the benign original.
#[test]
fn trojan_insertion_invariants() {
    check(CASES, |rng| {
        let (family, spec) = (family(rng), spec(rng));
        let mut rng = StdRng::seed_from_u64(rng.random_range(0u64..1000));
        let mut circuit = families::generate(family, "victim", &mut rng);
        let clean_text = print_module(&circuit.module);
        let clean_features = extract_features(&parse(&clean_text).unwrap().modules[0]);
        insert_trojan(&mut circuit, spec, &mut rng);
        let infected_text = print_module(&circuit.module);
        let infected = parse(&infected_text).expect("infected Verilog must parse");
        let infected_features = extract_features(&infected.modules[0]);
        assert_ne!(&clean_features, &infected_features);
        // The payload mux adds at least a ternary or changes expression mass.
        assert!(
            infected_features.expr_nodes > clean_features.expr_nodes,
            "expr nodes did not grow: {} -> {}",
            clean_features.expr_nodes,
            infected_features.expr_nodes
        );
    });
}

/// Graph invariants for arbitrary generated circuits.
#[test]
fn graph_invariants() {
    check(CASES, |rng| {
        let family = family(rng);
        let mut rng = StdRng::seed_from_u64(rng.random_range(0u64..1000));
        let circuit = families::generate(family, "graph_probe", &mut rng);
        let graph = build_graph(&circuit.module);
        let stats = graph_stats(&graph);
        assert!(stats.nodes > 0.0);
        assert!(stats.density >= 0.0 && stats.density <= 1.0);
        assert_eq!(stats.data_edges + stats.control_edges, stats.edges);
        let image = graph_image(&graph);
        assert!(image.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Degree sums equal edge count.
        let in_sum: usize = graph.in_degrees().iter().sum();
        assert_eq!(in_sum, graph.edge_count());
    });
}

/// Tabular features of any generated circuit are finite and non-negative.
#[test]
fn tabular_features_are_sane() {
    check(CASES, |rng| {
        let family = family(rng);
        let mut rng = StdRng::seed_from_u64(rng.random_range(0u64..1000));
        let circuit = families::generate(family, "tab_probe", &mut rng);
        let features = extract_features(&circuit.module).to_vec();
        assert_eq!(features.len(), noodle::tabular::FEATURE_NAMES.len());
        assert!(features.iter().all(|v| v.is_finite() && *v >= 0.0));
    });
}

/// Every combiner maps arbitrary valid p-values into (0, 1] and is
/// monotone under strengthening evidence.
#[test]
fn combiner_invariants() {
    check(CASES, |rng| {
        let p1 = rng.random_range(0.001f64..1.0);
        let p2 = rng.random_range(0.001f64..1.0);
        let shrink = rng.random_range(0.1f64..0.9);
        for combiner in Combiner::ALL {
            let combined = combiner.combine(&[p1, p2]);
            assert!(combined > 0.0 && combined <= 1.0, "{}: {combined}", combiner.name());
            // Shrinking one p-value must not increase the combination.
            let stronger = combiner.combine(&[p1 * shrink, p2]);
            assert!(stronger <= combined + 1e-9, "{}: {stronger} > {combined}", combiner.name());
        }
    });
}

/// Mondrian p-values are valid and monotone in the score.
#[test]
fn icp_p_value_monotonicity() {
    check(CASES, |rng| {
        let len = rng.random_range(8usize..60);
        let scores: Vec<f32> = (0..len).map(|_| rng.random_range(0.0f32..1.0)).collect();
        let probe = rng.random_range(0.0f32..1.0);
        let delta = rng.random_range(0.01f32..0.5);
        let calib: Vec<(f32, usize)> =
            scores.iter().enumerate().map(|(i, &s)| (s, i % 2)).collect();
        let icp = MondrianIcp::fit(&calib, 2).unwrap();
        for class in 0..2 {
            let p_low = icp.p_value(class, probe);
            let p_high = icp.p_value(class, probe + delta);
            assert!(p_low > 0.0 && p_low <= 1.0);
            assert!(p_high <= p_low, "p-value must not grow with the score");
        }
    });
}

/// Brier score is bounded and the Murphy identity approximately holds for
/// random forecasts.
#[test]
fn brier_bounds_and_identity() {
    check(CASES, |rng| {
        let (probs, outcomes) = forecasts(rng, 10..80);
        let bs = brier_score(&probs, &outcomes);
        assert!((0.0..=1.0).contains(&bs));
        let d = murphy_decomposition(&probs, &outcomes, 10);
        // Binned identity holds to within-bin variance; bound loosely.
        assert!((d.brier() - bs).abs() < 0.05, "identity gap {}", (d.brier() - bs).abs());
    });
}

/// AUC is within [0, 1] and label inversion flips it around 0.5.
#[test]
fn auc_inversion_symmetry() {
    check(CASES, |rng| {
        let (probs, mut outcomes) = forecasts(rng, 8..60);
        outcomes[0] = true;
        outcomes[1] = false;
        let auc = roc_curve(&probs, &outcomes).auc();
        assert!((0.0..=1.0).contains(&auc));
        let flipped: Vec<bool> = outcomes.iter().map(|&o| !o).collect();
        let auc_flipped = roc_curve(&probs, &flipped).auc();
        assert!((auc + auc_flipped - 1.0).abs() < 1e-9);
    });
}

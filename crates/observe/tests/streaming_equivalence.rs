//! Property test: the streaming engine and batch replay are the same
//! machine. For randomized prediction streams, [`StreamingMonitors`] must
//! report exactly what [`replay`] reports at *every prefix* — not just the
//! final state — and health transitions must fire exactly when consecutive
//! prefix reports disagree.
//!
//! The property runs on [`CASES`] cases through the seeded runner in the
//! workspace's `tests/support/cases.rs`; a failure names the case's seed.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::collections::BTreeMap;

use cases::check;

use noodle_observe::{
    replay, AuditHeader, CalibrationBaseline, MonitorConfig, PredictionRecord, ScoreBaseline,
    SourceProbe, StreamingMonitors, AUDIT_SCHEMA_VERSION,
};
use rand::rngs::StdRng;
use rand::RngExt;

const CASES: u64 = 48;

/// A randomized but internally consistent prediction record: probability,
/// p-values, region and label are all derived from the drawn scalars so
/// streams look like plausible detector output rather than pure noise.
fn arb_record(rng: &mut StdRng, seq: u64) -> PredictionRecord {
    let p1 = rng.random_range(0.0f64..1.0); // probability of the infected class
    let p_win = rng.random_range(0.0f64..1.0); // p-value of the winning class
    let p_lose = rng.random_range(0.0f64..0.5); // p-value of the losing class
    let labeled: bool = rng.random(); // labeled?
    let agree: bool = rng.random(); // label matches the prediction?
    let covered: bool = rng.random(); // covered (true class inside the region)?
    let imputed = rng.random::<f64>() < 0.2; // modality imputed?
    let latency = rng.random_range(1.0f64..5000.0); // latency in microseconds
    let infected = p1 >= 0.5;
    let winner = usize::from(infected);
    let label = labeled.then_some(if agree { winner } else { 1 - winner });
    let mut p_values = [0.0; 2];
    p_values[winner] = p_win;
    p_values[1 - winner] = p_lose.min(p_win);
    let region = match (label, covered) {
        (Some(l), true) => vec![l],
        (Some(l), false) => vec![1 - l],
        (None, _) => vec![winner],
    };
    PredictionRecord {
        seq,
        design: format!("fuzz_{seq:04}"),
        trace_id: String::new(),
        strategy: "LateFusion".into(),
        infected,
        probability_infected: p1,
        p_values,
        region,
        credibility: p_win,
        confidence: 1.0 - p_lose.min(p_win),
        uncertain: p_lose.min(p_win) > 0.1,
        significance: 0.1,
        graph_present: true,
        tabular_present: !imputed,
        imputed_modality: imputed,
        label,
        latency_us: latency,
        batch_latency_us: latency,
        batch_size: 1,
        sources: vec![SourceProbe { source: "graph".into(), p_values, scores: [p1, 1.0 - p1] }],
    }
}

/// A stream of 0 to 119 records.
fn arb_stream(rng: &mut StdRng) -> Vec<PredictionRecord> {
    let len = rng.random_range(0..120u64);
    (0..len).map(|i| arb_record(rng, i)).collect()
}

fn baseline_header() -> AuditHeader {
    let scores: Vec<f64> = (0..200).map(|i| 0.01 + 0.002 * (i % 90) as f64).collect();
    let mut sources = BTreeMap::new();
    sources.insert("graph".to_string(), ScoreBaseline::from_scores(&scores, 10).unwrap());
    AuditHeader {
        schema_version: AUDIT_SCHEMA_VERSION,
        tool_version: "0.1.0".into(),
        significance: 0.1,
        strategy: "LateFusion".into(),
        simd: String::new(),
        quantized: false,
        baseline: Some(CalibrationBaseline {
            sources,
            class_balance: 0.3,
            winner_brier: 0.08,
            significance: 0.1,
            calibration_count: 200,
        }),
        serve: None,
    }
}

/// Streaming == batch at every prefix, with and without a calibration
/// baseline, and transitions fire exactly at prefix-report changes.
#[test]
fn streaming_equals_replay_at_every_prefix() {
    check(CASES, |rng| {
        let records = arb_stream(rng);
        let with_header: bool = rng.random();
        let window = [8usize, 64, 256][rng.random_range(0..3)];
        let config = MonitorConfig { window, min_samples: 5, ..MonitorConfig::default() };
        let header = baseline_header();
        let header_ref = with_header.then_some(&header);

        let stream = StreamingMonitors::new(config.clone());
        if let Some(h) = header_ref {
            stream.observe_header(h);
        }

        // Empty prefix: a valid zero-record report, identical to replay.
        let mut previous = replay(header_ref, &[], config.clone());
        assert_eq!(&stream.report(), &previous);

        for (i, record) in records.iter().enumerate() {
            stream.observe(record);
            let prefix = replay(header_ref, &records[..=i], config.clone());
            let live = stream.report();
            assert_eq!(&live, &prefix, "prefix {} diverged", i + 1);

            // Transitions are exactly the per-monitor health diffs between
            // consecutive prefix reports.
            let transitions = stream.transitions_since_last();
            let mut expected: BTreeMap<&str, _> = BTreeMap::new();
            for status in &prefix.monitors {
                let before = previous
                    .monitors
                    .iter()
                    .find(|m| m.monitor == status.monitor)
                    .map_or(noodle_observe::Health::Healthy, |m| m.health);
                if before != status.health {
                    expected.insert(status.monitor.as_str(), (before, status.health));
                }
            }
            assert_eq!(transitions.len(), expected.len(), "at prefix {}", i + 1);
            for t in &transitions {
                assert!(
                    expected.contains_key(t.status.monitor.as_str()),
                    "unexpected transition for {}",
                    t.status.monitor
                );
                let (from, to) = expected[t.status.monitor.as_str()];
                assert_eq!(t.from, from);
                assert_eq!(t.status.health, to);
            }
            previous = prefix;
        }
    });
}

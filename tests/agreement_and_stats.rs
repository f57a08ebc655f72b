//! Integration: agreement statistics and statistical machinery over a real
//! campaign's output — kappa vs alpha consistency, committed digests of
//! the campaign's labels, bootstrap and McNemar behaviour on model
//! predictions.

use rsd15k::annotation::{AnnotatedItem, CampaignReport};
use rsd15k::common::rng::fnv1a;
use rsd15k::eval::{bootstrap_metrics, mcnemar};
use rsd15k::prelude::*;

fn campaign_items(seed: u64) -> Vec<(PostId, RiskLevel)> {
    let corpus = CorpusGenerator::new(CorpusConfig::small(seed, 1_200))
        .unwrap()
        .generate();
    corpus
        .posts
        .iter()
        .filter(|p| !p.off_topic && p.duplicate_of.is_none())
        .map(|p| (p.id, p.latent_risk))
        .collect()
}

fn run_campaign(cfg: CampaignConfig) -> (Vec<AnnotatedItem>, CampaignReport) {
    let items = campaign_items(cfg.seed);
    let campaign = Campaign::new(cfg).unwrap();
    campaign.run(&items).unwrap()
}

fn campaign_report(seed: u64) -> CampaignReport {
    run_campaign(CampaignConfig::paper(seed)).1
}

#[test]
fn kappa_and_alpha_agree_on_campaign_output() {
    let report = campaign_report(5001);
    assert!((0.55..=0.85).contains(&report.fleiss_kappa));
    // Alpha covers partially-rated items too; it should land in the same
    // neighbourhood as kappa, not a different regime.
    assert!(
        (report.krippendorff_alpha - report.fleiss_kappa).abs() < 0.15,
        "alpha {} vs kappa {}",
        report.krippendorff_alpha,
        report.fleiss_kappa
    );
}

/// FNV-1a over a campaign's output: each item's post, label index and
/// source, then the report as JSON.
fn campaign_digest(uncertainty_policy: bool) -> u64 {
    let mut cfg = CampaignConfig::paper(5001);
    cfg.uncertainty_policy = uncertainty_policy;
    let (items, report) = run_campaign(cfg);
    let mut bytes = Vec::new();
    for item in &items {
        bytes.extend_from_slice(&item.post.0.to_le_bytes());
        bytes.push(item.label.index() as u8);
        bytes.push(item.source as u8);
    }
    bytes.extend_from_slice(serde_json::to_string(&report).unwrap().as_bytes());
    fnv1a(&bytes)
}

/// The campaign's labels and report are pinned bit for bit, with the
/// uncertainty policy on (the build's setting) and off (the ablation's).
/// Any change to qualification, partitioning, annotation, voting,
/// adjudication or inspection that moves an RNG draw fails here.
#[test]
fn campaign_output_matches_committed_digest() {
    assert_eq!(campaign_digest(true), 0xbe65_8a19_1250_00f4);
    assert_eq!(campaign_digest(false), 0xba99_8db7_604e_aa2a);
}

#[test]
fn bootstrap_interval_covers_across_seeds() {
    // The interval from one seed's sample should usually contain the
    // point estimate from another seed's sample of the same process.
    let truth: Vec<usize> = (0..150).map(|i| i % 4).collect();
    let noisy = |seed: u64| -> Vec<usize> {
        use rand::Rng;
        use rsd15k::common::rng::stream_rng;
        let mut rng = stream_rng(seed, "test.noise");
        truth
            .iter()
            .map(|&t| {
                if rng.gen::<f64>() < 0.2 {
                    (t + 1) % 4
                } else {
                    t
                }
            })
            .collect()
    };
    let (acc_a, _) = bootstrap_metrics(4, &truth, &noisy(1), 300, 0.95, 1).unwrap();
    let (acc_b, _) = bootstrap_metrics(4, &truth, &noisy(2), 300, 0.95, 2).unwrap();
    assert!(
        acc_a.contains(acc_b.estimate) || acc_b.contains(acc_a.estimate),
        "intervals should overlap for identical processes: {acc_a:?} vs {acc_b:?}"
    );
}

#[test]
fn mcnemar_detects_real_model_gaps() {
    // Simulate a strictly better model: B fixes a third of A's errors.
    use rand::Rng;
    use rsd15k::common::rng::stream_rng;
    let truth: Vec<usize> = (0..400).map(|i| i % 4).collect();
    let mut rng = stream_rng(9, "test.mcnemar");
    let pred_a: Vec<usize> = truth
        .iter()
        .map(|&t| {
            if rng.gen::<f64>() < 0.4 {
                (t + 1) % 4
            } else {
                t
            }
        })
        .collect();
    let pred_b: Vec<usize> = truth
        .iter()
        .zip(&pred_a)
        .map(|(&t, &a)| {
            if a != t && rng.gen::<f64>() < 0.5 {
                t
            } else {
                a
            }
        })
        .collect();
    let out = mcnemar(&truth, &pred_a, &pred_b).unwrap();
    assert!(out.b_only > out.a_only);
    assert!(out.p_value < 0.01, "p = {}", out.p_value);
}

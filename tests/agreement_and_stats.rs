//! Integration: agreement statistics and statistical machinery over a real
//! campaign's output — kappa vs alpha consistency, bootstrap and McNemar
//! behaviour on model predictions.

use rsd15k::eval::{bootstrap_metrics, mcnemar};
use rsd15k::prelude::*;

fn campaign_report(seed: u64) -> rsd15k::annotation::CampaignReport {
    let corpus = CorpusGenerator::new(CorpusConfig::small(seed, 1_200))
        .unwrap()
        .generate();
    let items: Vec<(PostId, RiskLevel)> = corpus
        .posts
        .iter()
        .filter(|p| !p.off_topic && p.duplicate_of.is_none())
        .map(|p| (p.id, p.latent_risk))
        .collect();
    let mut campaign = Campaign::new(CampaignConfig::paper(seed)).unwrap();
    campaign.run(&items).unwrap().1
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

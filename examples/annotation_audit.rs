//! Annotation-pipeline audit: run the paper's full quality-control
//! protocol on a synthetic pool and print the audit trail — qualification
//! rounds, daily quotas and inspections, the uncertainty-policy effect,
//! and Fleiss' kappa with and without the policy (the §II-B2 ablation).
//!
//! Run: `cargo run --release --example annotation_audit`

use rsd15k::annotation::CampaignReport;
use rsd15k::eval::kappa::interpret_kappa;
use rsd15k::prelude::*;

fn run_campaign(items: &[(PostId, RiskLevel)], seed: u64, policy: bool) -> Result<CampaignReport> {
    let mut cfg = CampaignConfig::paper(seed);
    cfg.uncertainty_policy = policy;
    let campaign = Campaign::new(cfg)?;
    let (_, report) = campaign.run(items)?;
    Ok(report)
}

fn main() -> Result<()> {
    let seed = 11;
    let corpus = CorpusGenerator::new(CorpusConfig::small(seed, 2_500))?.generate();
    let items: Vec<(PostId, RiskLevel)> = corpus
        .posts
        .iter()
        .filter(|p| !p.off_topic && p.duplicate_of.is_none())
        .map(|p| (p.id, p.latent_risk))
        .collect();
    println!(
        "annotating {} posts with the paper's protocol...\n",
        items.len()
    );

    let with = run_campaign(&items, seed, true)?;
    println!("== with uncertainty-reporting policy ==");
    println!(
        "  qualification rounds: {:?}",
        with.qualification
            .iter()
            .map(|q| q.rounds)
            .collect::<Vec<_>>()
    );
    println!(
        "  Fleiss kappa: {:.4} ({})",
        with.fleiss_kappa,
        interpret_kappa(with.fleiss_kappa)
    );
    println!(
        "  flag rate: {:.2}%  adjudicated: {}",
        with.flag_rate * 100.0,
        with.adjudicated
    );
    println!(
        "  label accuracy vs ground truth: {:.2}%",
        with.label_accuracy * 100.0
    );
    println!(
        "  inspection days passed: {}/{}",
        with.days.iter().filter(|d| d.passed).count(),
        with.days.len()
    );

    let without = run_campaign(&items, seed, false)?;
    println!("\n== without the policy (forced decisions under hesitation) ==");
    println!("  Fleiss kappa: {:.4}", without.fleiss_kappa);
    println!(
        "  label accuracy vs ground truth: {:.2}%",
        without.label_accuracy * 100.0
    );

    println!(
        "\npolicy effect: {:+.2} percentage points of label accuracy, {:+.4} kappa",
        (with.label_accuracy - without.label_accuracy) * 100.0,
        with.fleiss_kappa - without.fleiss_kappa
    );
    Ok(())
}

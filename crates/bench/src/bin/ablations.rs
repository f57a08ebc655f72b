//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. MLM pretraining on vs off (the "PLM advantage" substitution).
//! 2. Temporal-feature fusion on vs off.
//! 3. Uncertainty-reporting policy on vs off in the annotation campaign.
//!
//! (Disentangled-vs-absolute attention and hierarchical-vs-flat recurrence
//! are covered by Table III itself: DeBERTa vs RoBERTa, HiGRU vs BiLSTM.)

use rsd_annotation::{Campaign, CampaignConfig};
use rsd_bench::{table3_configs, Prepared};
use rsd_corpus::{CorpusConfig, CorpusGenerator};
use rsd_models::PlmBaseline;

fn main() {
    let prepared = Prepared::from_env();
    let data = prepared.bench_data();
    let cfgs = table3_configs(prepared.scale);

    println!(
        "Ablations (scale {:?}, seed {})\n",
        prepared.scale, prepared.seed
    );

    // 1. MLM pretraining.
    println!("== DeBERTa: MLM pretraining on unlabeled pool ==");
    let with = PlmBaseline::new(cfgs.deberta.clone())
        .run(&data)
        .expect("with mlm");
    let mut no_mlm = cfgs.deberta.clone();
    no_mlm.pretrain_texts = 0;
    let without = PlmBaseline::new(no_mlm).run(&data).expect("no mlm");
    println!(
        "  with MLM    : acc {:>5.1}%  macro-F1 {:>5.1}%",
        with.report.accuracy * 100.0,
        with.report.macro_f1 * 100.0
    );
    println!(
        "  from scratch: acc {:>5.1}%  macro-F1 {:>5.1}%",
        without.report.accuracy * 100.0,
        without.report.macro_f1 * 100.0
    );

    // 2. Temporal fusion.
    println!("\n== DeBERTa: temporal-feature fusion ==");
    let mut no_time = cfgs.deberta.clone();
    no_time.temporal_fusion = false;
    let without_time = PlmBaseline::new(no_time).run(&data).expect("no time");
    println!(
        "  with fusion   : acc {:>5.1}%  macro-F1 {:>5.1}%",
        with.report.accuracy * 100.0,
        with.report.macro_f1 * 100.0
    );
    println!(
        "  without fusion: acc {:>5.1}%  macro-F1 {:>5.1}%",
        without_time.report.accuracy * 100.0,
        without_time.report.macro_f1 * 100.0
    );

    // 3. Uncertainty-reporting policy (annotation quality).
    println!("\n== Annotation campaign: uncertainty-reporting policy ==");
    let corpus = CorpusGenerator::new(CorpusConfig::small(prepared.seed, 2_500))
        .expect("corpus")
        .generate();
    let items: Vec<_> = corpus
        .posts
        .iter()
        .filter(|p| !p.off_topic && p.duplicate_of.is_none())
        .map(|p| (p.id, p.latent_risk))
        .collect();
    for policy in [true, false] {
        let mut cfg = CampaignConfig::paper(prepared.seed);
        cfg.uncertainty_policy = policy;
        let campaign = Campaign::new(cfg).expect("campaign");
        let (_, report) = campaign.run(&items).expect("run");
        println!(
            "  policy {:<3}: kappa {:.4}, label accuracy {:.2}%, flag rate {:.2}%",
            if policy { "on" } else { "off" },
            report.fleiss_kappa,
            report.label_accuracy * 100.0,
            report.flag_rate * 100.0
        );
    }
}

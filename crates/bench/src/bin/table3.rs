//! Table III: baseline benchmark on the user-level risk assessment task.
//!
//! Prints accuracy, macro-F1 and per-class F1 for all five baselines, in
//! the paper's layout. `RSD_SCALE=paper` reproduces the full-scale run;
//! the default `mid` scale preserves the ordering at a fraction of the
//! wall-clock. Individual models can be selected with
//! `RSD_MODELS=xgboost,bilstm,higru,roberta,deberta`.

use std::time::Instant;

use rsd_bench::{table3_configs, BinHarness, Prepared};
use rsd_models::{BiLstmBaseline, HiGruBaseline, PlmBaseline, XgboostBaseline};
use rsd_obs::Value;

fn main() {
    let mut h = BinHarness::start("table3");
    let prepared = Prepared::from_env();
    let data = prepared.bench_data();
    let cfgs = table3_configs(prepared.scale);

    let selected: String = rsd_obs::knob::MODELS.get();
    let want = |name: &str| selected.split(',').any(|m| m == name);

    println!("Table III — Performance comparison of baseline models");
    println!(
        "(scale {:?}, seed {}, {} train / {} valid / {} test users)",
        prepared.scale,
        prepared.seed,
        prepared.splits.train.len(),
        prepared.splits.valid.len(),
        prepared.splits.test.len()
    );
    let header = format!(
        "{:<10} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6}",
        "Model", "Acc%", "MacF1%", "IN-F1", "ID-F1", "BR-F1", "AT-F1"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    let mut model_rows: Vec<Value> = Vec::new();
    let mut print_outcome = |outcome: rsd_models::EvalOutcome, elapsed: std::time::Duration| {
        let r = &outcome.report;
        println!(
            "{:<10} {:>6.1} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}   [{:.1?}]",
            r.model,
            r.accuracy * 100.0,
            r.macro_f1 * 100.0,
            r.class_f1[0] * 100.0,
            r.class_f1[1] * 100.0,
            r.class_f1[2] * 100.0,
            r.class_f1[3] * 100.0,
            elapsed
        );
        for (k, v) in &outcome.extra {
            eprintln!("    {k} = {v}");
        }
        let names: Vec<&str> = rsd_corpus::RiskLevel::ALL
            .iter()
            .map(|l| l.name())
            .collect();
        eprintln!(
            "{}",
            rsd_eval::report::render_confusion_grid(&outcome.confusion, &names)
        );
        let mut row = rsd_obs::Map::new();
        row.insert("model", Value::from(r.model.as_str()));
        row.insert("accuracy", Value::Float(r.accuracy));
        row.insert("macro_f1", Value::Float(r.macro_f1));
        row.insert("elapsed_ms", Value::Float(elapsed.as_secs_f64() * 1e3));
        model_rows.push(Value::Object(row));
    };

    if want("xgboost") {
        let t = Instant::now();
        let outcome = XgboostBaseline::new(cfgs.xgboost)
            .run(&data)
            .expect("xgboost");
        print_outcome(outcome, t.elapsed());
    }
    if want("bilstm") {
        let t = Instant::now();
        let outcome = BiLstmBaseline::new(cfgs.bilstm).run(&data).expect("bilstm");
        print_outcome(outcome, t.elapsed());
    }
    if want("higru") {
        let t = Instant::now();
        let outcome = HiGruBaseline::new(cfgs.higru).run(&data).expect("higru");
        print_outcome(outcome, t.elapsed());
    }
    if want("roberta") {
        let t = Instant::now();
        let outcome = PlmBaseline::new(cfgs.roberta).run(&data).expect("roberta");
        print_outcome(outcome, t.elapsed());
    }
    if want("deberta") {
        let t = Instant::now();
        let outcome = PlmBaseline::new(cfgs.deberta).run(&data).expect("deberta");
        print_outcome(outcome, t.elapsed());
    }

    println!();
    println!(
        "Paper reference: XGBoost 42.5/25.3, BiLSTM 48.6/36.7, HiGRU 52.2/30.3, \
         RoBERTa 71.0/65.0, DeBERTa 76.0/77.0 (Acc%/MacF1%)"
    );

    h.run
        .set("selected", Value::from(selected.as_str()))
        .set("models", Value::Array(model_rows));
    h.finish();
}

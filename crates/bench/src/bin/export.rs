//! Export the built dataset as JSONL and CSV release artifacts (the form
//! the real RSD-15K ships in), after running the §IV privacy audit. A
//! `rsd15k.meta.json` sidecar records provenance plus the run's telemetry
//! (per-stage timings, counters, throughput) under `run_report`.

use rsd_bench::{BinHarness, Prepared};
use rsd_dataset::{io, privacy};
use rsd_obs::{Map, Value};

fn main() {
    let mut h = BinHarness::start("export");
    let prepared = Prepared::from_env();
    let audit = privacy::audit(&prepared.dataset);
    assert!(
        audit.passed(),
        "privacy audit failed; refusing to export: {:?}",
        audit.findings
    );
    let dir: String = rsd_obs::knob::EXPORT_DIR.get();
    std::fs::create_dir_all(&dir).expect("create export dir");
    let jsonl = format!("{dir}/rsd15k.jsonl");
    let csv = format!("{dir}/rsd15k.csv");
    let meta = format!("{dir}/rsd15k.meta.json");
    io::save(&prepared.dataset, &jsonl).expect("write jsonl");
    let file = std::fs::File::create(&csv).expect("create csv");
    io::to_csv(&prepared.dataset, file).expect("write csv");

    h.run
        .set("posts", Value::Int(prepared.dataset.n_posts() as i128))
        .set("users", Value::Int(prepared.dataset.n_users() as i128))
        .set(
            "privacy_posts_scanned",
            Value::Int(audit.posts_scanned as i128),
        );
    let mut meta_obj = Map::new();
    meta_obj.insert("dataset", Value::from("rsd15k"));
    meta_obj.insert("scale", Value::from(prepared.scale.name()));
    meta_obj.insert("seed", Value::Int(prepared.seed as i128));
    meta_obj.insert("files", {
        let mut f = Map::new();
        f.insert("jsonl", Value::from(jsonl.as_str()));
        f.insert("csv", Value::from(csv.as_str()));
        Value::Object(f)
    });
    meta_obj.insert("run_report", h.run.to_value());
    std::fs::write(
        &meta,
        format!("{}\n", Value::Object(meta_obj).to_json_pretty()),
    )
    .expect("write meta json");

    println!(
        "exported {} posts / {} users (privacy audit: {} posts scanned, clean)",
        prepared.dataset.n_posts(),
        prepared.dataset.n_users(),
        audit.posts_scanned
    );
    println!("  {jsonl}");
    println!("  {csv}");
    println!("  {meta}");
    h.finish();
}

//! Checkpointed stage boundaries.
//!
//! Every completed shard×stage (and every completed global stage) writes
//! two files under the checkpoint directory:
//!
//! ```text
//! <dir>/<stage>.shard00042.jsonl            per-shard artifact
//! <dir>/<stage>.shard00042.manifest.json    manifest, written last
//! <dir>/<stage>.jsonl                       global-stage artifact
//! <dir>/<stage>.manifest.json
//! ```
//!
//! The artifact is written to a `.tmp` sibling and renamed before the
//! manifest is written, so a manifest's presence implies a complete
//! artifact — a build killed mid-write leaves at most a dangling `.tmp`
//! and no manifest, and the boundary is simply recomputed on resume.
//!
//! Manifests embed a **config fingerprint**: resuming with a different
//! build configuration, seed, or shard size invalidates every prior
//! artifact (a silent cache miss, not an error).

use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::shard::ShardSpec;
use rsd_common::rng::fnv1a;
use rsd_common::{Result, RsdError};

/// A value that can be persisted at a stage boundary. Encodings are
/// line-oriented (JSONL) so artifacts stay greppable and diffable.
pub trait Artifact: Sized {
    /// Serialize to the writer. The encoding must be self-delimiting:
    /// decode must know where to stop without seeing EOF.
    fn encode(&self, w: &mut dyn Write) -> Result<()>;

    /// Deserialize from the reader, validating internal consistency.
    fn decode(r: &mut dyn BufRead) -> Result<Self>;
}

/// Manifest written after its artifact; presence implies completeness.
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    stage: String,
    shard: Option<usize>,
    fingerprint: u64,
    bytes: u64,
    version: u32,
}

const MANIFEST_VERSION: u32 = 1;

/// Manages a directory of stage-boundary artifacts for one build
/// configuration (identified by a fingerprint).
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    fingerprint: u64,
    hits: AtomicU64,
    writes: AtomicU64,
}

impl Checkpointer {
    /// Open (creating if needed) a checkpoint directory. `fingerprint`
    /// identifies the build configuration; artifacts recorded under a
    /// different fingerprint are ignored.
    pub fn new(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Checkpointer {
            dir,
            fingerprint,
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// The directory artifacts live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Artifacts successfully loaded so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Artifacts written so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    fn artifact_path(&self, stage: &str, shard: Option<&ShardSpec>) -> PathBuf {
        match shard {
            Some(s) => self.dir.join(format!("{stage}.shard{:05}.jsonl", s.index)),
            None => self.dir.join(format!("{stage}.jsonl")),
        }
    }

    fn manifest_path(&self, stage: &str, shard: Option<&ShardSpec>) -> PathBuf {
        match shard {
            Some(s) => self
                .dir
                .join(format!("{stage}.shard{:05}.manifest.json", s.index)),
            None => self.dir.join(format!("{stage}.manifest.json")),
        }
    }

    /// Try to load a previously stored artifact. Any inconsistency —
    /// missing files, fingerprint or size mismatch, decode failure — is a
    /// silent miss: the caller recomputes and overwrites.
    pub fn load<T: Artifact>(&self, stage: &str, shard: Option<&ShardSpec>) -> Option<T> {
        let manifest_text = fs::read_to_string(self.manifest_path(stage, shard)).ok()?;
        let manifest: Manifest = serde_json::from_str(&manifest_text).ok()?;
        if manifest.stage != stage
            || manifest.shard != shard.map(|s| s.index)
            || manifest.fingerprint != self.fingerprint
            || manifest.version != MANIFEST_VERSION
        {
            return None;
        }
        let apath = self.artifact_path(stage, shard);
        if fs::metadata(&apath).ok()?.len() != manifest.bytes {
            return None;
        }
        let file = fs::File::open(&apath).ok()?;
        let value = T::decode(&mut BufReader::new(file)).ok()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        rsd_obs::counter_add("pipeline.checkpoint.hits", 1);
        rsd_obs::counter_add("pipeline.checkpoint.bytes_read", manifest.bytes);
        emit_checkpoint_event("pipeline.checkpoint.hit", stage, shard, manifest.bytes);
        Some(value)
    }

    /// Persist an artifact and then its manifest (in that order, both via
    /// rename, so readers never observe partial state).
    pub fn store<T: Artifact>(
        &self,
        stage: &str,
        shard: Option<&ShardSpec>,
        value: &T,
    ) -> Result<()> {
        let apath = self.artifact_path(stage, shard);
        let atmp = apath.with_extension("jsonl.tmp");
        {
            let mut w = BufWriter::new(fs::File::create(&atmp)?);
            value.encode(&mut w)?;
            w.flush()?;
        }
        let bytes = fs::metadata(&atmp)?.len();
        fs::rename(&atmp, &apath)?;

        let manifest = Manifest {
            stage: stage.to_string(),
            shard: shard.map(|s| s.index),
            fingerprint: self.fingerprint,
            bytes,
            version: MANIFEST_VERSION,
        };
        let mpath = self.manifest_path(stage, shard);
        let mtmp = mpath.with_extension("json.tmp");
        fs::write(
            &mtmp,
            serde_json::to_string(&manifest).map_err(|e| RsdError::Serde(e.to_string()))?,
        )?;
        fs::rename(&mtmp, &mpath)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        rsd_obs::counter_add("pipeline.checkpoint.writes", 1);
        rsd_obs::counter_add("pipeline.checkpoint.bytes_written", bytes);
        emit_checkpoint_event("pipeline.checkpoint.write", stage, shard, bytes);
        Ok(())
    }
}

/// NDJSON record for one checkpoint I/O: which stage boundary, which
/// shard (absent for global stages), and the artifact size.
fn emit_checkpoint_event(label: &'static str, stage: &str, shard: Option<&ShardSpec>, bytes: u64) {
    if !rsd_obs::enabled() {
        return;
    }
    let mut fields = vec![
        ("stage", rsd_obs::Value::String(stage.to_string())),
        ("bytes", rsd_obs::Value::Int(i128::from(bytes))),
    ];
    if let Some(s) = shard {
        fields.push(("shard", rsd_obs::Value::Int(s.index as i128)));
    }
    rsd_obs::event(label, &fields);
}

/// Stable fingerprint of a build-configuration description string
/// (FNV-1a). Callers fold everything output-affecting into the string:
/// config `Debug` repr, seed, shard size, stage-format versions.
pub fn config_fingerprint(description: &str) -> u64 {
    fnv1a(description.as_bytes())
}

/// Load-or-compute at one stage boundary, per shard (`Some(shard)`) or
/// global (`None`): return the stored artifact if one is valid, otherwise
/// run `compute` and persist its result. Without a checkpointer this is
/// just `compute()`. Spans are the caller's: `compute` opens its own, so
/// a hit skips the stage's spans and events entirely.
pub fn checkpointed<T: Artifact>(
    ckpt: Option<&Checkpointer>,
    stage: &str,
    shard: Option<&ShardSpec>,
    compute: impl FnOnce() -> Result<T>,
) -> Result<T> {
    if let Some(value) = ckpt.and_then(|c| c.load(stage, shard)) {
        return Ok(value);
    }
    let out = compute()?;
    if let Some(c) = ckpt {
        c.store(stage, shard, &out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardPlan;

    /// Minimal line-oriented artifact for tests.
    #[derive(Debug, PartialEq)]
    struct Lines(Vec<String>);

    impl Artifact for Lines {
        fn encode(&self, w: &mut dyn Write) -> Result<()> {
            writeln!(w, "{}", self.0.len())?;
            for line in &self.0 {
                writeln!(w, "{line}")?;
            }
            Ok(())
        }

        fn decode(r: &mut dyn BufRead) -> Result<Self> {
            let mut lines = r.lines();
            let n: usize = lines
                .next()
                .ok_or_else(|| RsdError::Serde("empty artifact".into()))??
                .parse()
                .map_err(|_| RsdError::Serde("bad count".into()))?;
            let rest: Vec<String> = lines.collect::<std::io::Result<_>>()?;
            if rest.len() != n {
                return Err(RsdError::Serde("artifact truncated".into()));
            }
            Ok(Lines(rest))
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rsd_ckpt_{tag}_{}_{}",
            std::process::id(),
            fnv1a(tag.as_bytes())
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_shard_artifacts() {
        let dir = tmp_dir("round_trip");
        let ckpt = Checkpointer::new(&dir, 7).unwrap();
        let shard = ShardPlan::new(10, 4).unwrap().shard(1);
        let value = Lines(vec!["a".into(), "b".into()]);
        assert!(ckpt.load::<Lines>("stage", Some(&shard)).is_none());
        ckpt.store("stage", Some(&shard), &value).unwrap();
        assert_eq!(ckpt.load::<Lines>("stage", Some(&shard)), Some(value));
        assert_eq!(ckpt.hits(), 1);
        assert_eq!(ckpt.writes(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let dir = tmp_dir("fingerprint");
        let ckpt = Checkpointer::new(&dir, 7).unwrap();
        ckpt.store("s", None, &Lines(vec!["x".into()])).unwrap();
        let other = Checkpointer::new(&dir, 8).unwrap();
        assert!(other.load::<Lines>("s", None).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_artifact_is_a_miss() {
        let dir = tmp_dir("truncated");
        let ckpt = Checkpointer::new(&dir, 7).unwrap();
        ckpt.store("s", None, &Lines(vec!["x".into(), "y".into()]))
            .unwrap();
        // Corrupt the artifact while keeping the manifest: size mismatch.
        fs::write(dir.join("s.jsonl"), "2\n").unwrap();
        assert!(ckpt.load::<Lines>("s", None).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_miss_even_with_artifact() {
        let dir = tmp_dir("no_manifest");
        let ckpt = Checkpointer::new(&dir, 7).unwrap();
        ckpt.store("s", None, &Lines(vec!["x".into()])).unwrap();
        fs::remove_file(dir.join("s.manifest.json")).unwrap();
        assert!(ckpt.load::<Lines>("s", None).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointed_computes_once_then_replays() {
        let shard = ShardPlan::new(10, 4).unwrap().shard(1);
        for (tag, shard) in [("global", None), ("shard", Some(&shard))] {
            let dir = tmp_dir(tag);
            let ckpt = Checkpointer::new(&dir, 7).unwrap();
            let mut runs = 0;
            let a = checkpointed(Some(&ckpt), "g", shard, || {
                runs += 1;
                Ok(Lines(vec!["v".into()]))
            })
            .unwrap();
            let b = checkpointed(Some(&ckpt), "g", shard, || {
                runs += 1;
                Ok(Lines(vec!["w".into()]))
            })
            .unwrap();
            assert_eq!(runs, 1, "{tag}: second call must replay the checkpoint");
            assert_eq!((ckpt.writes(), ckpt.hits()), (1, 1), "{tag}");
            assert_eq!(a, b, "{tag}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

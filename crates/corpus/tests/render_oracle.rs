//! The buffer-written renderer against the renderer it replaced.
//!
//! `oracle` below is a test-local copy of the original `textgen.rs`
//! rendering, which built every word and sentence as its own `String`.
//! The renderer in the crate must produce the same bytes from the same
//! seed, and leave the RNG in the same state (the same draws, in the same
//! order: slot fillers, then the hedge, then one synonym roll per word).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsd_corpus::lexicon::{frames_for, CAMOUFLAGE_FRAMES};
use rsd_corpus::textgen::{render_post, TextGenConfig};
use rsd_corpus::RiskLevel;

mod oracle {
    use std::cell::RefCell;
    use std::collections::HashSet;

    use rand::Rng;
    use rsd_corpus::lexicon::{frames_for, slot_fillers, Frame, Slot, CAMOUFLAGE_FRAMES, FILLERS};
    use rsd_corpus::textgen::TextGenConfig;
    use rsd_corpus::RiskLevel;

    const HEDGES: &[&str] = &[
        "honestly",
        "maybe",
        "i guess",
        "idk",
        "tbh",
        "somehow",
        "lately",
        "again tonight",
    ];

    const SYNONYMS: &[(&str, &[&str])] = &[
        ("want", &["want", "need"]),
        ("keep", &["keep", "cannot", "can't"]),
        ("thinking", &["thinking", "obsessing"]),
        ("really", &["really", "rly", "genuinely"]),
        ("about", &["about", "abt"]),
        ("tonight", &["tonight", "rn"]),
        ("feel", &["feel", "feel like"]),
        ("tired", &["tired", "drained"]),
        ("empty", &["empty", "hollow"]),
        ("everyone", &["everyone", "everybody"]),
        ("nothing", &["nothing", "nothin"]),
        ("because", &["because", "cause", "bc"]),
    ];

    const HEDGE_PROB: f64 = 0.3;
    const SYNONYM_PROB: f64 = 0.35;

    fn stylize(sentence: &str, rng: &mut impl Rng) -> String {
        let mut words: Vec<String> = Vec::new();
        if rng.gen::<f64>() < HEDGE_PROB {
            words.push(HEDGES[rng.gen_range(0..HEDGES.len())].to_string());
        }
        for word in sentence.split_whitespace() {
            let mut out = word.to_string();
            if rng.gen::<f64>() < SYNONYM_PROB {
                if let Some((_, variants)) = SYNONYMS.iter().find(|(k, _)| *k == word) {
                    out = variants[rng.gen_range(0..variants.len())].to_string();
                }
            }
            words.push(out);
        }
        words.join(" ")
    }

    thread_local! {
        /// Every frame this thread's oracle rendered, as (bank, index):
        /// bank `l` < 4 is `frames_for(RiskLevel::ALL[l])`, bank 4 the
        /// camouflage frames.
        pub static RENDERED: RefCell<HashSet<(usize, usize)>> = RefCell::new(HashSet::new());
    }

    /// Draw a frame of `bank` and record which one was drawn.
    fn pick(bank: usize, frames: &[Frame], rng: &mut impl Rng) -> Frame {
        let i = rng.gen_range(0..frames.len());
        RENDERED.with(|r| r.borrow_mut().insert((bank, i)));
        frames[i]
    }

    fn render_frame(frame: Frame, rng: &mut impl Rng) -> String {
        let mut parts: Vec<&str> = Vec::with_capacity(frame.len());
        for slot in frame {
            match slot {
                Slot::Lit(text) => parts.push(text),
                other => {
                    let bank = slot_fillers(*other);
                    parts.push(bank[rng.gen_range(0..bank.len())]);
                }
            }
        }
        stylize(&parts.join(" "), rng)
    }

    pub fn render_post(
        level: RiskLevel,
        mean_sentences: f64,
        cfg: &TextGenConfig,
        rng: &mut impl Rng,
    ) -> String {
        let frames = frames_for(level);
        let mut sentences: Vec<String> = Vec::new();
        sentences.push(render_frame(pick(level.index(), frames, rng), rng));
        if rng.gen::<f64>() < cfg.double_signal_prob {
            sentences.push(render_frame(pick(level.index(), frames, rng), rng));
        }
        let n_fillers = {
            let base = (mean_sentences - 1.0).max(1.0);
            let jitter: f64 = rng.gen_range(-1.0..1.5);
            (base + jitter).round().max(1.0) as usize
        };
        for _ in 0..n_fillers {
            if rng.gen::<f64>() < 0.7 {
                let frame = pick(4, CAMOUFLAGE_FRAMES, rng);
                sentences.push(render_frame(frame, rng));
            } else {
                let filler = FILLERS[rng.gen_range(0..FILLERS.len())];
                sentences.push(stylize(filler, rng));
            }
        }
        rsd_common::rng::shuffle(rng, &mut sentences);
        let mut body = sentences.join(". ");
        body.push('.');
        apply_noise(&mut body, cfg, rng);
        body
    }

    fn apply_noise(body: &mut String, cfg: &TextGenConfig, rng: &mut impl Rng) {
        if rng.gen::<f64>() < cfg.punct_run_prob {
            body.push_str("!!!");
        }
        if rng.gen::<f64>() < cfg.special_char_prob {
            body.push_str(" ~~ #### ");
        }
        if rng.gen::<f64>() < cfg.link_prob {
            let n: u32 = rng.gen_range(100..999);
            body.push_str(&format!(" https://imgur.com/a/{n}"));
        }
        if rng.gen::<f64>() < 0.08 {
            if let Some(word) = body.split_whitespace().next().map(str::to_uppercase) {
                let rest = body.split_once(' ').map(|x| x.1).unwrap_or("").to_string();
                *body = if rest.is_empty() {
                    word
                } else {
                    format!("{word} {rest}")
                };
            }
        }
    }
}

/// Every combination of the four noise switches at 0 and at 1.
fn switch_configs() -> Vec<TextGenConfig> {
    (0..16u32)
        .map(|bits| {
            let p = |i: u32| f64::from((bits >> i) & 1);
            TextGenConfig {
                link_prob: p(0),
                punct_run_prob: p(1),
                special_char_prob: p(2),
                double_signal_prob: p(3),
            }
        })
        .collect()
}

/// Render with both implementations from `seed`; the bodies and the next
/// draw of each RNG must agree.
fn assert_same_post(level: RiskLevel, mean: f64, cfg: &TextGenConfig, seed: u64) {
    let mut a = StdRng::seed_from_u64(seed);
    let mut b = StdRng::seed_from_u64(seed);
    let got = render_post(level, mean, cfg, &mut a);
    let want = oracle::render_post(level, mean, cfg, &mut b);
    assert_eq!(
        got, want,
        "seed {seed}, {level:?}, mean_sentences {mean}, {cfg:?}"
    );
    assert_eq!(
        a.gen::<u64>(),
        b.gen::<u64>(),
        "RNG draws diverged: seed {seed}, {level:?}, mean_sentences {mean}, {cfg:?}"
    );
    assert_eq!(
        got.capacity(),
        got.len(),
        "post bodies carry no spare capacity"
    );
}

const SEEDS: u64 = 10_000;
const MEANS: [f64; 4] = [1.0, 2.5, 4.0, 6.5];

#[test]
fn posts_match_the_oracle_under_the_default_config() {
    let cfg = TextGenConfig::default();
    for seed in 0..SEEDS {
        for level in RiskLevel::ALL {
            for mean in MEANS {
                assert_same_post(level, mean, &cfg, seed);
            }
        }
    }
    // The comparison reached every frame of every level and every
    // camouflage frame.
    let rendered = oracle::RENDERED.with(|r| r.borrow().clone());
    let banks = RiskLevel::ALL
        .iter()
        .map(|&level| frames_for(level))
        .chain([CAMOUFLAGE_FRAMES]);
    for (bank, frames) in banks.enumerate() {
        for i in 0..frames.len() {
            assert!(
                rendered.contains(&(bank, i)),
                "frame {i} of bank {bank} was never rendered"
            );
        }
    }
}

#[test]
fn posts_match_the_oracle_with_each_noise_switch_at_0_and_1() {
    // Each seed renders under one of the 16 switch combinations, so every
    // switch is at 0 for half the seeds and at 1 for the other half.
    let configs = switch_configs();
    for seed in 0..SEEDS {
        let cfg = &configs[seed as usize % configs.len()];
        for level in RiskLevel::ALL {
            for mean in MEANS {
                assert_same_post(level, mean, cfg, seed.wrapping_mul(0x9e37_79b9));
            }
        }
    }
}

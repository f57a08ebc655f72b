//! Post text rendering.
//!
//! Renders a latent risk level into a raw post body: one or two *signal*
//! sentences drawn from the class's frame bank, diluted with neutral filler
//! sentences, then roughened with the surface noise the paper's
//! preprocessing stage removes (links, repeated punctuation, stray special
//! characters, inconsistent casing). The clean/noise split is deliberate —
//! `rsd-text` must have real work to do.
//!
//! Rendering allocates once per post. Each thread keeps one set of
//! buffers: a post's sentences are written back to back into one `String`
//! and recorded as byte spans, the spans are shuffled, and the sentences
//! are joined into a second buffer that the noise pass edits in place. The
//! returned body is copied out at its exact length. The RNG draws come in
//! a fixed order, and every seed's bytes are part of the build's output:
//! per sentence, the frame's slot fillers, then the hedge roll, then one
//! synonym roll per word. `tests/render_oracle.rs` holds the
//! `String`-per-word renderer this replaced and checks the two agree.

use std::cell::RefCell;
use std::fmt::Write;

use rand::Rng;

use crate::lexicon::{frames_for, slot_fillers, Frame, Slot, CAMOUFLAGE_FRAMES, FILLERS};
use crate::risk::RiskLevel;

/// Hedge words randomly prefixed to sentences (surface diversity).
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

/// Word-level paraphrase map applied stochastically after rendering. The
/// entries deliberately avoid the relevance lexicon's load-bearing crisis
/// terms; distress adjectives map to synonyms that are themselves in the
/// lexicon, so cleaning recall is unaffected. This is what keeps the
/// synthetic language from being memorizable by small from-scratch models:
/// each frame has combinatorially many surface variants, and only models
/// that learned the variant structure (from pretraining or capacity) can
/// generalize across them — the real-world mechanism behind the paper's
/// PLM advantage.
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

/// Probability a sentence gets a hedge prefix.
const HEDGE_PROB: f64 = 0.3;
/// Probability a matched word is replaced by a synonym variant.
const SYNONYM_PROB: f64 = 0.35;

/// Append one styled sentence to `out`: maybe a hedge, then the words of
/// `parts` separated by single spaces, each rolled once for a synonym.
fn stylize<'a>(parts: impl IntoIterator<Item = &'a str>, rng: &mut impl Rng, out: &mut String) {
    let start = out.len();
    if rng.gen::<f64>() < HEDGE_PROB {
        out.push_str(HEDGES[rng.gen_range(0..HEDGES.len())]);
    }
    for word in parts.into_iter().flat_map(str::split_whitespace) {
        if out.len() > start {
            out.push(' ');
        }
        let mut text = word;
        if rng.gen::<f64>() < SYNONYM_PROB {
            if let Some((_, variants)) = SYNONYMS.iter().find(|(k, _)| *k == word) {
                text = variants[rng.gen_range(0..variants.len())];
            }
        }
        out.push_str(text);
    }
}

/// Append one sentence rendered from `frame` to `out`: draw every open
/// slot's filler into `parts` first, then style the words.
fn write_frame(frame: Frame, rng: &mut impl Rng, parts: &mut Vec<&'static str>, out: &mut String) {
    parts.clear();
    for slot in frame {
        match slot {
            Slot::Lit(text) => parts.push(text),
            other => {
                let bank = slot_fillers(*other);
                parts.push(bank[rng.gen_range(0..bank.len())]);
            }
        }
    }
    stylize(parts.iter().copied(), rng, out);
}

/// Controls for the text renderer.
#[derive(Debug, Clone)]
pub struct TextGenConfig {
    /// Probability of appending a URL to a post (noise for preprocessing).
    pub link_prob: f64,
    /// Probability of exclamation/punctuation runs.
    pub punct_run_prob: f64,
    /// Probability of injecting stray special characters.
    pub special_char_prob: f64,
    /// Probability a post carries a *second* signal sentence.
    pub double_signal_prob: f64,
}

impl Default for TextGenConfig {
    fn default() -> Self {
        TextGenConfig {
            link_prob: 0.12,
            punct_run_prob: 0.10,
            special_char_prob: 0.06,
            double_signal_prob: 0.35,
        }
    }
}

/// The buffers one thread renders its posts in, reused from post to post.
#[derive(Default)]
struct Scratch {
    /// The post's sentences, back to back.
    text: String,
    /// Byte range of each sentence in `text`, in drawing order.
    spans: Vec<(usize, usize)>,
    /// A frame's words before styling.
    parts: Vec<&'static str>,
    /// The joined, noised body.
    body: String,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Scratch {
    fn push_frame(&mut self, frame: Frame, rng: &mut impl Rng) {
        let start = self.text.len();
        write_frame(frame, rng, &mut self.parts, &mut self.text);
        self.spans.push((start, self.text.len()));
    }

    fn push_filler(&mut self, filler: &str, rng: &mut impl Rng) {
        let start = self.text.len();
        stylize([filler], rng, &mut self.text);
        self.spans.push((start, self.text.len()));
    }

    fn render_post(
        &mut self,
        level: RiskLevel,
        mean_sentences: f64,
        cfg: &TextGenConfig,
        rng: &mut impl Rng,
    ) -> String {
        self.text.clear();
        self.spans.clear();
        let frames = frames_for(level);

        // Signal sentence(s).
        self.push_frame(frames[rng.gen_range(0..frames.len())], rng);
        if rng.gen::<f64>() < cfg.double_signal_prob {
            self.push_frame(frames[rng.gen_range(0..frames.len())], rng);
        }

        // Filler sentences: geometric-ish count around the mean, at least one.
        let n_fillers = {
            let base = (mean_sentences - 1.0).max(1.0);
            let jitter: f64 = rng.gen_range(-1.0..1.5);
            (base + jitter).round().max(1.0) as usize
        };
        for _ in 0..n_fillers {
            // Most fillers come from the camouflage bank (shared high-value
            // vocabulary in neutral roles); the rest from plain life-context
            // lines.
            if rng.gen::<f64>() < 0.7 {
                let frame = CAMOUFLAGE_FRAMES[rng.gen_range(0..CAMOUFLAGE_FRAMES.len())];
                self.push_frame(frame, rng);
            } else {
                self.push_filler(FILLERS[rng.gen_range(0..FILLERS.len())], rng);
            }
        }

        // Shuffle so the signal isn't always first — sequence models must find it.
        rsd_common::rng::shuffle(rng, &mut self.spans);

        self.body.clear();
        for (i, &(start, end)) in self.spans.iter().enumerate() {
            if i > 0 {
                self.body.push_str(". ");
            }
            self.body.push_str(&self.text[start..end]);
        }
        self.body.push('.');

        apply_noise(&mut self.body, cfg, rng);
        self.body.as_str().to_owned()
    }
}

/// Render a full raw post body for the given level.
///
/// `mean_sentences` controls filler dilution (risk-coupled; see
/// `crate::behavior::coupling`). The result intentionally contains noise;
/// see the module docs.
pub fn render_post(
    level: RiskLevel,
    mean_sentences: f64,
    cfg: &TextGenConfig,
    rng: &mut impl Rng,
) -> String {
    SCRATCH.with(|s| s.borrow_mut().render_post(level, mean_sentences, cfg, rng))
}

/// Inject the surface noise the preprocessing stage is responsible for
/// removing.
fn apply_noise(body: &mut String, cfg: &TextGenConfig, rng: &mut impl Rng) {
    if rng.gen::<f64>() < cfg.punct_run_prob {
        body.push_str("!!!");
    }
    if rng.gen::<f64>() < cfg.special_char_prob {
        body.push_str(" ~~ #### ");
    }
    if rng.gen::<f64>() < cfg.link_prob {
        let n: u32 = rng.gen_range(100..999);
        // Writing to a `String` cannot fail.
        let _ = write!(body, " https://imgur.com/a/{n}");
    }
    // Occasional SHOUTING of one word (case normalization work). A body
    // starts with a word and separates words with single spaces, so the
    // first word ends at the first space; a body that is one word and a
    // trailing space loses the space.
    if rng.gen::<f64>() < 0.08 {
        let end = body.find(' ').unwrap_or(body.len());
        let word = body[..end].to_uppercase();
        if end + 1 >= body.len() {
            body.truncate(end);
        }
        body.replace_range(..end, &word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn render_frame(frame: Frame, rng: &mut impl Rng) -> String {
        let mut out = String::new();
        write_frame(frame, rng, &mut Vec::with_capacity(frame.len()), &mut out);
        out
    }

    #[test]
    fn render_frame_fills_all_slots() {
        let mut rng = StdRng::seed_from_u64(1);
        for level in RiskLevel::ALL {
            for frame in frames_for(level) {
                let s = render_frame(frame, &mut rng);
                assert!(!s.is_empty());
                assert!(!s.contains("  "), "no double spaces: {s:?}");
            }
        }
    }

    #[test]
    fn posts_are_nonempty_and_multisentence() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TextGenConfig::default();
        for level in RiskLevel::ALL {
            for _ in 0..50 {
                let p = render_post(level, 3.5, &cfg, &mut rng);
                assert!(p.split('.').filter(|s| !s.trim().is_empty()).count() >= 2);
            }
        }
    }

    #[test]
    fn noise_appears_at_configured_rates() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TextGenConfig {
            link_prob: 1.0,
            punct_run_prob: 1.0,
            special_char_prob: 1.0,
            double_signal_prob: 0.0,
        };
        let p = render_post(RiskLevel::Ideation, 3.0, &cfg, &mut rng);
        assert!(p.contains("https://"));
        assert!(p.contains("!!!"));
        assert!(p.contains("####"));
    }

    #[test]
    fn zero_noise_config_produces_clean_text() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = TextGenConfig {
            link_prob: 0.0,
            punct_run_prob: 0.0,
            special_char_prob: 0.0,
            double_signal_prob: 0.0,
        };
        for _ in 0..100 {
            let p = render_post(RiskLevel::Behavior, 3.0, &cfg, &mut rng);
            assert!(!p.contains("https://"));
            assert!(!p.contains("!!!"));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TextGenConfig::default();
        let a = render_post(
            RiskLevel::Attempt,
            4.0,
            &cfg,
            &mut StdRng::seed_from_u64(99),
        );
        let b = render_post(
            RiskLevel::Attempt,
            4.0,
            &cfg,
            &mut StdRng::seed_from_u64(99),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn higher_mean_sentences_longer_posts() {
        let cfg = TextGenConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let short: f64 = (0..200)
            .map(|_| render_post(RiskLevel::Ideation, 2.0, &cfg, &mut rng).len() as f64)
            .sum::<f64>()
            / 200.0;
        let long: f64 = (0..200)
            .map(|_| render_post(RiskLevel::Ideation, 6.0, &cfg, &mut rng).len() as f64)
            .sum::<f64>()
            / 200.0;
        assert!(long > short, "long {long} should exceed short {short}");
    }
}

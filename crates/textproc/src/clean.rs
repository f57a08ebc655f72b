//! Noise filtering and normalization (paper §II-A2, step 3–4).
//!
//! Removes URLs, stray special characters and punctuation runs, folds case
//! and whitespace. Cleaning is conservative: sentence-final punctuation is
//! preserved as a single `.` so sentence segmentation still works
//! downstream.
//!
//! [`clean_text`] writes every kept token straight into the output and
//! allocates nothing per word. Tokens are scanned char by char with
//! `char`'s whitespace, alphanumerics and lowercasing (`İ` lowercases to
//! `i` and a combining dot that is not alphanumeric, so an apostrophe
//! after it is dropped).

/// Clean one raw post body: strip links, collapse punctuation runs, drop
/// non-linguistic special characters, lowercase, and normalize whitespace.
pub fn clean_text(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for token in raw.split_whitespace() {
        if is_url(token) {
            continue;
        }
        let sep = out.len();
        if sep > 0 {
            out.push(' ');
        }
        let start = out.len();
        let saw_terminal = clean_token(token, &mut out);
        // Trim an apostrophe left dangling at the end.
        while out.len() > start && out.ends_with('\'') {
            out.pop();
        }
        if out.len() == start {
            out.truncate(sep);
        } else if saw_terminal {
            // A trailing punctuation run collapses into one period.
            out.push('.');
        }
    }
    out
}

/// True if the token looks like a URL or bare domain link.
fn is_url(token: &str) -> bool {
    let t = token.trim_matches(|c: char| c.is_ascii_punctuation());
    token.starts_with("http://")
        || token.starts_with("https://")
        || token.starts_with("www.")
        || t.starts_with("http://")
        || t.starts_with("https://")
        || t.starts_with("www.")
}

/// Write a token's kept characters: letters and digits lowercased, and
/// apostrophes only after a word character ("don't"). Everything else
/// (~, #, *, emoji, commas, dashes) is dropped. Reports whether a sentence
/// terminal (`.`, `!`, `?`) followed the last kept character. The
/// character before the token in `out` is a space, if any, so "after a
/// word character" never looks outside the token.
fn clean_token(token: &str, out: &mut String) -> bool {
    let mut saw_terminal = false;
    for ch in token.chars() {
        if ch.is_ascii_alphanumeric() {
            // `to_lowercase` gives the same char here, through an iterator.
            out.push(ch.to_ascii_lowercase());
            saw_terminal = false;
        } else if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
            saw_terminal = false;
        } else if ch == '\'' || ch == '’' {
            if out.ends_with(|c: char| c.is_alphanumeric()) {
                out.push('\'');
            }
        } else if matches!(ch, '.' | '!' | '?') {
            saw_terminal = true;
        }
    }
    saw_terminal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_urls() {
        assert_eq!(
            clean_text("check this https://imgur.com/a/123 out"),
            "check this out"
        );
        assert_eq!(clean_text("www.example.com lonely"), "lonely");
        assert_eq!(clean_text("(https://a.b/c)"), "");
    }

    #[test]
    fn collapses_punctuation_runs() {
        assert_eq!(clean_text("help me!!!"), "help me.");
        assert_eq!(clean_text("why??  why!?"), "why. why.");
    }

    #[test]
    fn drops_special_characters() {
        assert_eq!(clean_text("so ~~ #### tired"), "so tired");
        assert_eq!(clean_text("a*b c#d"), "ab cd");
    }

    #[test]
    fn lowercases() {
        assert_eq!(clean_text("I CANNOT Sleep"), "i cannot sleep");
    }

    #[test]
    fn keeps_intra_word_apostrophes() {
        assert_eq!(clean_text("don't can't o'clock"), "don't can't o'clock");
        assert_eq!(clean_text("'''"), "");
        assert_eq!(clean_text("end'"), "end");
    }

    #[test]
    fn preserves_sentence_boundaries() {
        let cleaned = clean_text("first sentence. second one!!! third?");
        assert_eq!(cleaned, "first sentence. second one. third.");
    }

    #[test]
    fn normalizes_whitespace() {
        assert_eq!(clean_text("  a \t b \n c  "), "a b c");
    }

    #[test]
    fn idempotent() {
        let raw = "I survived!! ~~ https://x.y/z don't WORRY...";
        let once = clean_text(raw);
        let twice = clean_text(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn unicode_apostrophe_folds() {
        assert_eq!(clean_text("don’t"), "don't");
    }
}

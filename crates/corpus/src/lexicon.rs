//! Class-conditional lexicons and sentence frames.
//!
//! The generator's language model is a frame grammar: each risk level owns a
//! bank of sentence frames with typed slots, plus shared slot fillers. The
//! design goal is *calibrated difficulty*, mirroring why real suicide-risk
//! classification is hard:
//!
//! 1. **Shared surface vocabulary.** High-risk tokens ("kill", "pills",
//!    "die", "attempt") appear in *all four* classes. What differs is the
//!    frame: first-person future/desire (Ideation), preparatory past/
//!    progressive (Behavior), completed past attempt (Attempt), or negated /
//!    third-person (Indicator). A bag-of-words model sees overlapping
//!    unigrams; an order-aware model can read the frame; an attention model
//!    can resolve long-range subject references.
//! 2. **Negation and perspective distractors.** Indicator frames embed the
//!    same risk phrases under "i would never ...", "my brother ...", "asking
//!    for a friend who ...".
//! 3. **Filler dilution.** Every post mixes in neutral life-context
//!    sentences (work, school, sleep, relationships) so the discriminative
//!    signal has realistic sparsity.
//!
//! The word lists are intentionally clinical/neutral paraphrases — detailed
//! method or means language is deliberately excluded; frames reference means
//! only with abstract placeholder nouns. This suffices for benchmark
//! purposes (distributional structure) without reproducing harmful content.

use crate::risk::RiskLevel;

/// A typed slot inside a sentence frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Literal text, emitted verbatim.
    Lit(&'static str),
    /// A neutral "means/tool" noun (abstract: "the pills", "everything i need").
    Means,
    /// A verb phrase expressing dying, first person infinitive ("end it all").
    EndVerb,
    /// An emotion/state adjective ("empty", "exhausted", "numb").
    Feeling,
    /// A third-party relation noun ("brother", "friend", "coworker").
    Relation,
    /// A time reference ("last night", "two months ago").
    TimeRef,
    /// A life-context topic ("work", "school", "my family").
    LifeTopic,
    /// A preparatory action ("wrote the note", "gave away my things").
    PrepAct,
    /// A neutral filler clause.
    Filler,
}

/// A sentence frame: a sequence of slots rendered with spaces in between.
pub type Frame = &'static [Slot];

use Slot::*;

/// Abstract means nouns (no operational detail).
pub const MEANS: &[&str] = &[
    "the pills",
    "what i saved up",
    "everything i would need",
    "the stuff i kept",
    "the bottle",
    "what i bought",
];

/// First-person "end" verb phrases.
pub(crate) const END_VERBS: &[&str] = &[
    "end it all",
    "kill myself",
    "end my life",
    "disappear for good",
    "not wake up",
    "stop existing",
    "end things",
    "be done with living",
];

/// Emotional-state fillers.
pub(crate) const FEELINGS: &[&str] = &[
    "empty",
    "exhausted",
    "numb",
    "worthless",
    "hopeless",
    "invisible",
    "trapped",
    "broken",
    "tired of everything",
    "so alone",
    "overwhelmed",
    "burned out",
];

/// Third-party relations (Indicator perspective shifts).
pub(crate) const RELATIONS: &[&str] = &[
    "brother",
    "sister",
    "best friend",
    "roommate",
    "coworker",
    "classmate",
    "cousin",
    "neighbor",
    "friend from school",
    "mom",
    "dad",
];

/// Time references.
pub(crate) const TIME_REFS: &[&str] = &[
    "last night",
    "two months ago",
    "last year",
    "a few weeks ago",
    "back in march",
    "when i was seventeen",
    "over the winter",
    "right before finals",
    "yesterday",
];

/// Neutral life topics.
pub(crate) const LIFE_TOPICS: &[&str] = &[
    "work",
    "school",
    "my family",
    "my relationship",
    "money",
    "my health",
    "the job search",
    "my classes",
    "rent",
    "everything at home",
];

/// Preparatory acts (Behavior class).
pub(crate) const PREP_ACTS: &[&str] = &[
    "wrote the note",
    "gave away my things",
    "sorted out my passwords",
    "said my goodbyes quietly",
    "put my affairs in order",
    "cleaned my room for the last time",
    "made a list of who gets what",
    "looked up how to write a will",
];

/// Neutral filler clauses shared by every class.
pub const FILLERS: &[&str] = &[
    "i have not been sleeping much lately",
    "things have been hard since the lockdown started",
    "i lost my job in the spring",
    "my grades keep slipping no matter what i do",
    "nobody at home really talks to me anymore",
    "i keep skipping meals without noticing",
    "the days all blur together now",
    "i used to love drawing but i stopped",
    "therapy is too expensive right now",
    "i moved to a new city and know nobody",
    "my parents keep fighting about money",
    "i failed another interview this week",
    "the apartment is a mess and i cannot care",
    "i have been drinking more than i should",
    "everyone seems to be doing fine except me",
    "i scroll my phone until sunrise most nights",
    "my ex blocked me last month",
    "the meds make me feel foggy",
    "i cried in the car again today",
    "i keep canceling plans with my friends",
];

/// Camouflage filler frames: neutral life-context sentences that reuse the
/// *same* high-value vocabulary as the signal frames — relations, "want",
/// "tried", "took", "found", "bought", "survived", "bridge", "hospital",
/// "woke", "note", "gave away" — in innocuous roles. These are mixed into
/// every class's posts, so unigram statistics alone cannot separate the
/// classes: exactly the property that makes real social-media risk text
/// hard for bag-of-words models (the paper's XGBoost sits at 42.5 %
/// accuracy while context models reach 76 %).
pub const CAMOUFLAGE_FRAMES: &[Frame] = &[
    &[
        Lit("my"),
        Relation,
        Lit("called to check on me again today"),
    ],
    &[
        Lit("i had lunch with my"),
        Relation,
        Lit("and barely said a word"),
    ],
    &[
        Lit("my"),
        Relation,
        Lit("keeps asking what is wrong and i say nothing"),
    ],
    &[Lit("i want this week to be over already")],
    &[Lit("i do not even want to get out of bed most days")],
    &[Lit("i tried studying for finals but nothing sticks")],
    &[Lit("i took a long walk around the block to clear my head")],
    &[Lit("i found my old sketchbooks while cleaning my room")],
    &[Lit("i never answer the phone anymore")],
    &[
        Lit("my"),
        Relation,
        Lit("survived another round of layoffs at work"),
    ],
    &[Lit("i bought groceries for the first time in two weeks")],
    &[Lit("i woke up at noon again and hated myself for it")],
    &[Lit("the pharmacy messed up my meds refill again")],
    &[Lit("i keep a list of chores i never start")],
    &[Lit("i wrote three emails today and sent none")],
    &[
        Lit("my"),
        Relation,
        Lit("is in town"),
        TimeRef,
        Lit("and i have to pretend"),
    ],
    &[Lit("i am not hungry lately just tired")],
    &[Lit("i drove past my old school"), TimeRef],
    &[Lit("crossing the bridge on my commute felt endless today")],
    &[Lit("i gave away some old clothes to the charity shop")],
    &[Lit("i stood in line at the hospital pharmacy for an hour")],
    &[
        Lit("my"),
        Relation,
        Lit("left a note on the fridge about rent"),
    ],
    &[Lit("i keep the curtains drawn all day"), TimeRef],
    &[Lit("i attempted the assignment three times and gave up")],
    &[Lit("i just want to sleep for a week straight")],
    &[Lit("all i want is for things to feel normal again")],
    &[Lit("i want my old life back honestly")],
    &[Lit("i keep thinking about quitting my job")],
    &[Lit("i think i failed the midterm"), TimeRef],
    &[Lit("i keep thinking about moving back home")],
    &[
        Lit("my"),
        Relation,
        Lit("wants me to see someone but i keep canceling"),
    ],
    &[
        Lit("my"),
        Relation,
        Lit("keeps sending me job listings i ignore"),
    ],
];

/// Off-topic sentences: content unrelated to the suicide-risk theme that
/// leaks into any real crawl and that preprocessing must filter out. The
/// vocabulary is deliberately disjoint from the support lexicon so a
/// relevance heuristic has a fair signal.
pub const OFF_TOPIC_SENTENCES: &[&str] = &[
    "anyone else hyped for the new console drop this friday",
    "selling my old graphics card dm me for specs",
    "what build are you all running this season",
    "the pizza place downtown finally reopened",
    "my fantasy league is an absolute disaster this year",
    "does anyone have spare beta keys for the expansion",
    "just finished a ten mile ride along the river trail",
    "the finale of that show made zero sense honestly",
    "looking for squadmates in the evening eu timezone",
    "our team blew a twenty point lead again classic",
    "new ramen spot review coming to my blog this weekend",
    "patch notes nerfed my favorite loadout into the ground",
];

/// Ideation frames: first-person desire/thought, no concrete action.
///
/// Every strong content word here ("pills", "note", "bridge", "hospital",
/// "tried", "woke") also appears in at least one other class's bank, so a
/// bag-of-words model sees heavily overlapping unigram distributions; the
/// class signal is the *composition* — first-person present desire without
/// a completed act.
pub(crate) const IDEATION_FRAMES: &[Frame] = &[
    &[Lit("i want to"), EndVerb],
    &[
        Lit("i keep thinking about how easy it would be to"),
        EndVerb,
    ],
    &[Lit("i wish i could just"), EndVerb],
    &[Lit("lately i daydream about ways to"), EndVerb],
    &[
        Lit("some days i really want to"),
        EndVerb,
        Lit("and it scares me"),
    ],
    &[Lit("i feel"), Feeling, Lit("and i want to"), EndVerb],
    &[
        Lit("thinking about"),
        LifeTopic,
        Lit("makes me ready to"),
        EndVerb,
    ],
    &[Lit("i do not have a plan but i want to"), EndVerb],
    &[
        Lit("my"),
        Relation,
        Lit("keeps checking on me but i still plan to"),
        EndVerb,
    ],
    &[
        Lit("i told my"),
        Relation,
        Lit("i was fine but honestly i want to"),
        EndVerb,
    ],
    &[
        Lit("i keep imagining taking"),
        Means,
        Lit("but i have not done anything"),
    ],
    &[Lit("i think about the bridge every time we drive over it")],
    &[Lit(
        "i keep drafting the note in my head but i never write it",
    )],
    &[Lit("i have not tried anything yet but i am scared i will")],
    &[Lit("i woke up angry that i am still here again")],
    &[Lit(
        "i keep imagining the hospital and wondering if anyone would even visit",
    )],
];

/// Behavior frames: preparatory acts, acquiring means, self-harm — all
/// first-person *acts* sharing surface vocabulary with the other classes.
pub(crate) const BEHAVIOR_FRAMES: &[Frame] = &[
    &[Lit("i bought"), Means, TimeRef],
    &[Lit("i have been collecting"), Means, Lit("for a while now")],
    &[Lit("i"), PrepAct, TimeRef],
    &[Lit("tonight i"), PrepAct],
    &[Lit("i keep"), Means, Lit("in my drawer just in case")],
    &[Lit("i started hurting myself again"), TimeRef],
    &[Lit("i have been cutting again and hiding the scars")],
    &[
        Lit("i stood on the bridge for an hour"),
        TimeRef,
        Lit("before walking home"),
    ],
    &[Lit("i picked a date and i"), PrepAct],
    &[
        Lit("i never told my"),
        Relation,
        Lit("that i bought"),
        Means,
    ],
    &[
        Lit("my"),
        Relation,
        Lit("almost found"),
        Means,
        Lit("hidden in my room"),
    ],
    &[Lit("i am not going to talk about it i just"), PrepAct],
    &[Lit("i wrote the note and put it under my pillow")],
    &[
        Lit("i sat in the hospital parking lot"),
        TimeRef,
        Lit("trying to decide"),
    ],
    &[
        Lit("i took out"),
        Means,
        Lit("again and counted everything twice"),
    ],
    &[
        Lit("i drove out to the bridge again with"),
        Means,
        Lit("in the car"),
    ],
];

/// Attempt frames: a completed (survived) past attempt; past tense and
/// aftermath vocabulary, again deliberately overlapping the other banks.
pub(crate) const ATTEMPT_FRAMES: &[Frame] = &[
    &[
        TimeRef,
        Lit("i tried to"),
        EndVerb,
        Lit("and i am still here"),
    ],
    &[Lit("i survived my attempt"), TimeRef],
    &[
        Lit("i took"),
        Means,
        TimeRef,
        Lit("but i woke up in the hospital"),
    ],
    &[
        Lit("this is my second time in the er after trying to"),
        EndVerb,
    ],
    &[TimeRef, Lit("i attempted and my roommate found me")],
    &[
        Lit("after my attempt"),
        TimeRef,
        Lit("everything feels different"),
    ],
    &[
        Lit("i tried once"),
        TimeRef,
        Lit("and i think about trying again"),
    ],
    &[Lit("the doctors said i was lucky after i took"), Means],
    &[Lit("i woke up disappointed that it did not work")],
    &[
        Lit("my attempt"),
        TimeRef,
        Lit("left scars i hide every day"),
    ],
    &[
        Lit("i never told anyone that"),
        TimeRef,
        Lit("i tried to"),
        EndVerb,
    ],
    &[Lit("my"), Relation, Lit("found me after i took"), Means],
    &[Lit("i am not proud of it but"), TimeRef, Lit("i attempted")],
    &[
        Lit("they found the note i left"),
        TimeRef,
        Lit("after i tried"),
    ],
    &[Lit("i still have the bottle from the night i tried")],
    &[
        Lit("i wrote a note said my goodbyes and took"),
        Means,
        TimeRef,
    ],
];

/// Indicator frames: third-party, negation, denial, concern — the class
/// whose surface vocabulary deliberately collides with all three risk
/// classes ("tried", "bought", "survived", "hospital", "note", "scars",
/// "bridge", "drawer"); only the perspective/role resolves the label.
pub(crate) const INDICATOR_FRAMES: &[Frame] = &[
    &[
        Lit("my"),
        Relation,
        Lit("tried to"),
        EndVerb,
        TimeRef,
        Lit("and i do not know how to help"),
    ],
    &[
        Lit("my"),
        Relation,
        Lit("keeps talking about wanting to"),
        EndVerb,
    ],
    &[
        Lit("asking for a friend who wants to"),
        EndVerb,
        Lit("what do i say"),
    ],
    &[
        Lit("i would never"),
        EndVerb,
        Lit("but i understand why people think about it"),
    ],
    &[Lit("to be clear i am not suicidal just"), Feeling],
    &[Lit("i am worried my"), Relation, Lit("bought"), Means],
    &[
        Lit("my"),
        Relation,
        Lit("survived an attempt"),
        TimeRef,
        Lit("and i feel so lost"),
    ],
    &[
        Lit("i do not want to"),
        EndVerb,
        Lit("i just want"),
        LifeTopic,
        Lit("to stop hurting"),
    ],
    &[Lit("i am safe i promise but i feel"), Feeling],
    &[
        Lit("i found"),
        Means,
        Lit("in my"),
        Relation,
        Lit("drawer and i am terrified"),
    ],
    &[
        Lit("my"),
        Relation,
        Lit("is in the hospital after an attempt"),
        TimeRef,
    ],
    &[Lit("i saw fresh scars on my"), Relation, Lit("arms again")],
    &[
        Lit("my"),
        Relation,
        Lit("wrote a note"),
        TimeRef,
        Lit("and we found it in time"),
    ],
    &[
        Lit("i took my"),
        Relation,
        Lit("to the er after they tried to"),
        EndVerb,
    ],
    &[
        Lit("my"),
        Relation,
        Lit("keeps standing on the bridge and i am scared for them"),
    ],
    &[Lit("how do i support someone who keeps cutting")],
];

/// Frames for the given class.
pub fn frames_for(level: RiskLevel) -> &'static [Frame] {
    match level {
        RiskLevel::Indicator => INDICATOR_FRAMES,
        RiskLevel::Ideation => IDEATION_FRAMES,
        RiskLevel::Behavior => BEHAVIOR_FRAMES,
        RiskLevel::Attempt => ATTEMPT_FRAMES,
    }
}

/// Fillers for a [`Slot`] kind (the `Lit` and `Filler` variants are handled
/// by the renderer directly).
pub fn slot_fillers(slot: Slot) -> &'static [&'static str] {
    match slot {
        Slot::Means => MEANS,
        Slot::EndVerb => END_VERBS,
        Slot::Feeling => FEELINGS,
        Slot::Relation => RELATIONS,
        Slot::TimeRef => TIME_REFS,
        Slot::LifeTopic => LIFE_TOPICS,
        Slot::PrepAct => PREP_ACTS,
        Slot::Filler => FILLERS,
        Slot::Lit(_) => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_frames() {
        for level in RiskLevel::ALL {
            assert!(
                frames_for(level).len() >= 10,
                "{level} needs a rich frame bank"
            );
        }
    }

    #[test]
    fn frames_are_nonempty() {
        for level in RiskLevel::ALL {
            for frame in frames_for(level) {
                assert!(!frame.is_empty());
            }
        }
    }

    #[test]
    fn slot_fillers_nonempty_for_open_slots() {
        for slot in [
            Means, EndVerb, Feeling, Relation, TimeRef, LifeTopic, PrepAct, Filler,
        ] {
            assert!(!slot_fillers(slot).is_empty());
        }
        assert!(slot_fillers(Lit("x")).is_empty());
    }

    #[test]
    fn vocabulary_collision_exists_between_indicator_and_ideation() {
        // The difficulty calibration depends on Indicator frames reusing
        // EndVerb vocabulary — verify structurally.
        let uses_end_verb = |frames: &[Frame]| {
            frames
                .iter()
                .any(|f| f.iter().any(|s| matches!(s, Slot::EndVerb)))
        };
        assert!(uses_end_verb(INDICATOR_FRAMES));
        assert!(uses_end_verb(IDEATION_FRAMES));
        assert!(uses_end_verb(ATTEMPT_FRAMES));
    }

    #[test]
    fn filler_bank_is_wide() {
        assert!(FILLERS.len() >= 15, "filler dilution needs variety");
        assert!(CAMOUFLAGE_FRAMES.len() >= 20, "camouflage needs variety");
    }

    #[test]
    fn camouflage_covers_signal_vocabulary() {
        // The unigram-neutralization property: key signal tokens must also
        // appear in neutral camouflage contexts.
        let all_text: String = CAMOUFLAGE_FRAMES
            .iter()
            .flat_map(|f| f.iter())
            .filter_map(|s| match s {
                Slot::Lit(t) => Some(*t),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join(" ");
        for word in [
            "want",
            "tried",
            "took",
            "found",
            "bought",
            "survived",
            "bridge",
            "hospital",
            "woke",
            "note",
            "gave away",
            "attempted",
        ] {
            assert!(
                all_text.contains(word),
                "camouflage bank must reuse {word:?}"
            );
        }
        // And relations appear via slots.
        let has_relation = CAMOUFLAGE_FRAMES
            .iter()
            .any(|f| f.iter().any(|s| matches!(s, Slot::Relation)));
        assert!(has_relation);
    }
}

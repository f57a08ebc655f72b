//! The published dataset schema.
//!
//! RSD-15K's unit of annotation is the post; its unit of *analysis* is the
//! user: every user's complete posting timeline is retained in order, and
//! the user-level label is the risk level of their latest post (paper
//! §III). `Post.text` holds the *cleaned* body (the raw crawl text never
//! ships — part of the privacy posture), and every post carries its
//! annotation provenance.

use serde::{Deserialize, Serialize};

use rsd_annotation::LabelSource;
use rsd_common::{Result, RsdError, Timestamp};
use rsd_corpus::{PostId, RiskLevel, UserId};

/// One annotated post.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Post {
    /// Stable post id (pseudonymous, dense).
    pub id: PostId,
    /// Pseudonymous author id.
    pub user: UserId,
    /// UTC creation time.
    pub created: Timestamp,
    /// Cleaned, normalized body text.
    pub text: String,
    /// The annotation-campaign label.
    pub label: RiskLevel,
    /// How the label was produced (individual / vote / adjudication).
    pub source: LabelSource,
}

/// One user: their complete chronological post indices within the dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserRecord {
    /// Pseudonymous user id.
    pub id: UserId,
    /// Indices into [`Rsd15k::posts`], sorted by post `created` ascending.
    pub post_indices: Vec<usize>,
}

/// The assembled dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Rsd15k {
    /// All annotated posts.
    pub posts: Vec<Post>,
    /// All users with their timelines.
    pub users: Vec<UserRecord>,
    /// Seed the dataset was built from (provenance).
    pub seed: u64,
}

impl Rsd15k {
    /// Number of posts.
    pub fn n_posts(&self) -> usize {
        self.posts.len()
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// The user-level label: risk level of the user's latest post.
    pub fn user_label(&self, user: &UserRecord) -> Result<RiskLevel> {
        let last = user
            .post_indices
            .last()
            .ok_or_else(|| RsdError::data(format!("user {} has no posts", user.id)))?;
        Ok(self.posts[*last].label)
    }

    /// The user with id `id`, by binary search: [`validate`] holds
    /// `users` sorted by id with no duplicates, as both builders emit them.
    ///
    /// [`validate`]: Rsd15k::validate
    pub fn user(&self, id: UserId) -> Option<&UserRecord> {
        self.users
            .binary_search_by_key(&id, |u| u.id)
            .ok()
            .map(|i| &self.users[i])
    }

    /// Iterate a user's posts in chronological order.
    pub fn user_posts<'a>(&'a self, user: &'a UserRecord) -> impl Iterator<Item = &'a Post> {
        user.post_indices.iter().map(move |&i| &self.posts[i])
    }

    /// Post count per class, indexed by [`RiskLevel::index`] — Table I's
    /// "Count" column.
    pub fn class_counts(&self) -> [usize; RiskLevel::COUNT] {
        let mut counts = [0usize; RiskLevel::COUNT];
        for p in &self.posts {
            counts[p.label.index()] += 1;
        }
        counts
    }

    /// Structural invariants every well-formed dataset upholds; used by
    /// tests and by `io` after deserialization:
    ///
    /// * every post belongs to exactly one user's timeline;
    /// * timelines are chronological;
    /// * timelines reference valid indices;
    /// * users are non-empty;
    /// * users are sorted by strictly increasing id (what [`Rsd15k::user`]
    ///   searches).
    pub fn validate(&self) -> Result<()> {
        if let Some(w) = self.users.windows(2).find(|w| w[0].id >= w[1].id) {
            return Err(RsdError::data(format!(
                "users not sorted by unique id: {} before {}",
                w[0].id, w[1].id
            )));
        }
        let mut seen = vec![false; self.posts.len()];
        for user in &self.users {
            if user.post_indices.is_empty() {
                return Err(RsdError::data(format!("user {} has no posts", user.id)));
            }
            let mut prev: Option<Timestamp> = None;
            for &idx in &user.post_indices {
                let post = self
                    .posts
                    .get(idx)
                    .ok_or_else(|| RsdError::data(format!("post index {idx} out of range")))?;
                if post.user != user.id {
                    return Err(RsdError::data(format!(
                        "post {} in timeline of user {} but authored by {}",
                        post.id, user.id, post.user
                    )));
                }
                if seen[idx] {
                    return Err(RsdError::data(format!(
                        "post index {idx} appears in two timelines"
                    )));
                }
                seen[idx] = true;
                if let Some(p) = prev {
                    if post.created < p {
                        return Err(RsdError::data(format!(
                            "user {} timeline not chronological at post {}",
                            user.id, post.id
                        )));
                    }
                }
                prev = Some(post.created);
            }
        }
        if let Some(orphan) = seen.iter().position(|&s| !s) {
            return Err(RsdError::data(format!(
                "post index {orphan} not in any timeline"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;

    /// A tiny hand-built dataset: 2 users, 5 posts.
    pub fn tiny() -> Rsd15k {
        let mk = |id: u32, user: u32, t: i64, label: RiskLevel| Post {
            id: PostId(id),
            user: UserId(user),
            created: Timestamp(t),
            text: format!("post {id}"),
            label,
            source: LabelSource::Individual,
        };
        Rsd15k {
            posts: vec![
                mk(0, 0, 100, RiskLevel::Indicator),
                mk(1, 0, 200, RiskLevel::Ideation),
                mk(2, 1, 150, RiskLevel::Behavior),
                mk(3, 1, 250, RiskLevel::Attempt),
                mk(4, 0, 300, RiskLevel::Ideation),
            ],
            users: vec![
                UserRecord {
                    id: UserId(0),
                    post_indices: vec![0, 1, 4],
                },
                UserRecord {
                    id: UserId(1),
                    post_indices: vec![2, 3],
                },
            ],
            seed: 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::tiny;
    use super::*;

    #[test]
    fn tiny_fixture_is_valid() {
        tiny().validate().unwrap();
    }

    #[test]
    fn user_label_is_latest_post() {
        let d = tiny();
        assert_eq!(d.user_label(&d.users[0]).unwrap(), RiskLevel::Ideation);
        assert_eq!(d.user_label(&d.users[1]).unwrap(), RiskLevel::Attempt);
    }

    #[test]
    fn class_counts_sum_to_posts() {
        let d = tiny();
        let counts = d.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), d.n_posts());
        assert_eq!(counts[RiskLevel::Ideation.index()], 2);
    }

    #[test]
    fn validation_rejects_orphan_posts() {
        let mut d = tiny();
        d.users[0].post_indices.pop(); // post 4 now orphaned
        assert!(d.validate().is_err());
    }

    #[test]
    fn validation_rejects_unchronological_timeline() {
        let mut d = tiny();
        d.users[0].post_indices.swap(0, 1);
        assert!(d.validate().is_err());
    }

    #[test]
    fn validation_rejects_wrong_author() {
        let mut d = tiny();
        d.posts[2].user = UserId(0);
        assert!(d.validate().is_err());
    }

    #[test]
    fn validation_rejects_double_membership() {
        let mut d = tiny();
        d.users[1].post_indices = vec![2, 3, 4];
        assert!(d.validate().is_err());
    }

    #[test]
    fn validation_rejects_empty_user() {
        let mut d = tiny();
        d.users.push(UserRecord {
            id: UserId(2),
            post_indices: vec![],
        });
        assert!(d.validate().is_err());
    }

    #[test]
    fn validation_rejects_unsorted_or_duplicate_user_ids() {
        let mut d = tiny();
        d.users.swap(0, 1);
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("not sorted"), "{err}");

        let mut d = tiny();
        d.users[1].id = UserId(0);
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("not sorted"), "{err}");
    }

    #[test]
    fn user_lookup_by_id() {
        let d = tiny();
        assert_eq!(d.user(UserId(1)), Some(&d.users[1]));
        assert_eq!(d.user(UserId(0)), Some(&d.users[0]));
        assert_eq!(d.user(UserId(2)), None);
    }

    #[test]
    fn user_posts_iterates_in_order() {
        let d = tiny();
        let times: Vec<i64> = d.user_posts(&d.users[0]).map(|p| p.created.0).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }
}

//! Label-Studio-like task platform substrate.
//!
//! Reproduces the workflow contract the paper's annotation campaign ran on:
//! a project holds **tasks**; tasks are **assigned** to annotators in
//! batches; annotators either **submit** a label or **flag** the task as
//! uncertain; supervisors **resolve** flagged tasks; every transition is
//! recorded so campaign-level audits (daily inspection, kappa subsets) can
//! replay exactly what happened. The platform is thread-safe (annotators
//! worked concurrently against the real server), guarded by a
//! `parking_lot` mutex.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use rsd_common::{Result, RsdError};
use rsd_corpus::{PostId, RiskLevel};

/// Platform-local task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// Created, not yet assigned.
    Pending,
    /// Assigned to one or more annotators, awaiting submissions.
    Assigned,
    /// All required submissions received.
    Completed,
    /// Flagged uncertain by an annotator; awaiting supervisor resolution.
    Flagged,
    /// Resolved by a supervisor after a flag or a three-way disagreement.
    Adjudicated,
}

/// One annotation submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submission {
    /// Annotator index within the campaign.
    pub annotator: usize,
    /// The label submitted.
    pub label: RiskLevel,
}

/// A task: one post to label, plus its audit trail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Task {
    /// Platform id.
    pub id: TaskId,
    /// The post being labelled.
    pub post: PostId,
    /// Lifecycle state.
    pub state: TaskState,
    /// Annotators this task was assigned to.
    pub assigned_to: Vec<usize>,
    /// Submissions received so far.
    pub submissions: Vec<Submission>,
    /// Annotators who flagged the task uncertain.
    pub flagged_by: Vec<usize>,
    /// Supervisor resolution, if any.
    pub resolution: Option<RiskLevel>,
}

impl Task {
    /// Final label: supervisor resolution wins; otherwise majority of
    /// submissions (2-of-3 voting); `None` if neither applies yet.
    pub fn final_label(&self) -> Option<RiskLevel> {
        if let Some(r) = self.resolution {
            return Some(r);
        }
        if self.submissions.is_empty() {
            return None;
        }
        let mut counts = [0usize; RiskLevel::COUNT];
        for s in &self.submissions {
            counts[s.label.index()] += 1;
        }
        let (best_idx, best) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("nonempty");
        let majority_needed = self.submissions.len() / 2 + 1;
        if *best >= majority_needed {
            Some(RiskLevel::from_index(best_idx).expect("valid index"))
        } else {
            None
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    tasks: Vec<Task>,
    by_post: HashMap<PostId, TaskId>,
}

/// A thread-safe labeling project.
#[derive(Debug, Clone, Default)]
pub struct LabelingPlatform {
    inner: Arc<Mutex<Inner>>,
}

impl LabelingPlatform {
    /// Empty platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create tasks for the given posts; returns their ids in order.
    pub fn create_tasks(&self, posts: &[PostId]) -> Vec<TaskId> {
        let mut inner = self.inner.lock();
        let mut ids = Vec::with_capacity(posts.len());
        for &post in posts {
            let id = TaskId(inner.tasks.len() as u32);
            inner.tasks.push(Task {
                id,
                post,
                state: TaskState::Pending,
                assigned_to: Vec::new(),
                submissions: Vec::new(),
                flagged_by: Vec::new(),
                resolution: None,
            });
            inner.by_post.insert(post, id);
            ids.push(id);
        }
        ids
    }

    /// Assign a task to an annotator.
    pub fn assign(&self, task: TaskId, annotator: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = get_mut(&mut inner, task)?;
        if !t.assigned_to.contains(&annotator) {
            t.assigned_to.push(annotator);
        }
        if t.state == TaskState::Pending {
            t.state = TaskState::Assigned;
        }
        Ok(())
    }

    /// Submit a label. The annotator must have been assigned. When every
    /// assigned annotator has submitted, the task completes.
    pub fn submit(&self, task: TaskId, annotator: usize, label: RiskLevel) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = get_mut(&mut inner, task)?;
        if !t.assigned_to.contains(&annotator) {
            return Err(RsdError::PipelineState(format!(
                "annotator {annotator} not assigned to {task}"
            )));
        }
        if t.submissions.iter().any(|s| s.annotator == annotator) {
            return Err(RsdError::PipelineState(format!(
                "annotator {annotator} already submitted for {task}"
            )));
        }
        t.submissions.push(Submission { annotator, label });
        if t.state == TaskState::Assigned
            && t.submissions.len() + t.flagged_by.len() >= t.assigned_to.len()
        {
            t.state = TaskState::Completed;
        }
        Ok(())
    }

    /// Flag a task as uncertain (the paper's uncertainty-reporting policy):
    /// the annotator abstains and the task moves to the supervisor queue.
    pub fn flag_uncertain(&self, task: TaskId, annotator: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = get_mut(&mut inner, task)?;
        if !t.assigned_to.contains(&annotator) {
            return Err(RsdError::PipelineState(format!(
                "annotator {annotator} not assigned to {task}"
            )));
        }
        if !t.flagged_by.contains(&annotator) {
            t.flagged_by.push(annotator);
        }
        t.state = TaskState::Flagged;
        Ok(())
    }

    /// Supervisor resolution of a flagged or disagreeing task.
    pub fn adjudicate(&self, task: TaskId, label: RiskLevel) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = get_mut(&mut inner, task)?;
        t.resolution = Some(label);
        t.state = TaskState::Adjudicated;
        Ok(())
    }

    /// Snapshot of one task.
    pub fn task(&self, id: TaskId) -> Result<Task> {
        let inner = self.inner.lock();
        inner
            .tasks
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| RsdError::not_found("task", id))
    }

    /// Ids of tasks currently in the given state.
    pub fn tasks_in_state(&self, state: TaskState) -> Vec<TaskId> {
        let inner = self.inner.lock();
        inner
            .tasks
            .iter()
            .filter(|t| t.state == state)
            .map(|t| t.id)
            .collect()
    }

    /// Export all tasks (the platform's "export annotations" action).
    pub fn export(&self) -> Vec<Task> {
        self.inner.lock().tasks.clone()
    }

    /// Find the task for a post.
    pub fn task_for_post(&self, post: PostId) -> Option<TaskId> {
        self.inner.lock().by_post.get(&post).copied()
    }

    /// Export annotations in a Label-Studio-compatible JSON shape: one
    /// object per task with `data` (the source reference) and
    /// `annotations` (one result per submission, plus the adjudicated
    /// resolution when present). This is the interoperability surface a
    /// real campaign would hand to downstream tooling.
    pub fn export_label_studio_json(&self) -> Result<String> {
        #[derive(serde::Serialize)]
        struct LsResult {
            from_name: &'static str,
            to_name: &'static str,
            r#type: &'static str,
            value: LsChoice,
        }
        #[derive(serde::Serialize)]
        struct LsChoice {
            choices: Vec<String>,
        }
        #[derive(serde::Serialize)]
        struct LsAnnotation {
            completed_by: usize,
            result: Vec<LsResult>,
        }
        #[derive(serde::Serialize)]
        struct LsTask {
            id: u32,
            data: serde_json::Value,
            annotations: Vec<LsAnnotation>,
            cancelled_annotations: usize,
        }

        let tasks = self.export();
        let mut out = Vec::with_capacity(tasks.len());
        for t in tasks {
            let mut annotations: Vec<LsAnnotation> = t
                .submissions
                .iter()
                .map(|s| LsAnnotation {
                    completed_by: s.annotator,
                    result: vec![LsResult {
                        from_name: "risk",
                        to_name: "text",
                        r#type: "choices",
                        value: LsChoice {
                            choices: vec![s.label.name().to_string()],
                        },
                    }],
                })
                .collect();
            if let Some(resolution) = t.resolution {
                annotations.push(LsAnnotation {
                    completed_by: usize::MAX, // supervisor panel
                    result: vec![LsResult {
                        from_name: "risk",
                        to_name: "text",
                        r#type: "choices",
                        value: LsChoice {
                            choices: vec![resolution.name().to_string()],
                        },
                    }],
                });
            }
            out.push(LsTask {
                id: t.id.0,
                data: serde_json::json!({ "post": t.post.to_string() }),
                annotations,
                cancelled_annotations: t.flagged_by.len(),
            });
        }
        serde_json::to_string_pretty(&out).map_err(|e| RsdError::Serde(e.to_string()))
    }
}

fn get_mut(inner: &mut Inner, id: TaskId) -> Result<&mut Task> {
    inner
        .tasks
        .get_mut(id.0 as usize)
        .ok_or_else(|| RsdError::not_found("task", id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform_with(n: u32) -> (LabelingPlatform, Vec<TaskId>) {
        let p = LabelingPlatform::new();
        let posts: Vec<PostId> = (0..n).map(PostId).collect();
        let ids = p.create_tasks(&posts);
        (p, ids)
    }

    #[test]
    fn lifecycle_pending_assigned_completed() {
        let (p, ids) = platform_with(1);
        assert_eq!(p.task(ids[0]).unwrap().state, TaskState::Pending);
        p.assign(ids[0], 0).unwrap();
        assert_eq!(p.task(ids[0]).unwrap().state, TaskState::Assigned);
        p.submit(ids[0], 0, RiskLevel::Ideation).unwrap();
        assert_eq!(p.task(ids[0]).unwrap().state, TaskState::Completed);
    }

    #[test]
    fn submit_requires_assignment_and_is_idempotent_guarded() {
        let (p, ids) = platform_with(1);
        assert!(p.submit(ids[0], 0, RiskLevel::Ideation).is_err());
        p.assign(ids[0], 0).unwrap();
        p.submit(ids[0], 0, RiskLevel::Ideation).unwrap();
        assert!(p.submit(ids[0], 0, RiskLevel::Attempt).is_err());
    }

    #[test]
    fn triple_assignment_completes_after_all_submit() {
        let (p, ids) = platform_with(1);
        for a in 0..3 {
            p.assign(ids[0], a).unwrap();
        }
        p.submit(ids[0], 0, RiskLevel::Ideation).unwrap();
        p.submit(ids[0], 1, RiskLevel::Ideation).unwrap();
        assert_eq!(p.task(ids[0]).unwrap().state, TaskState::Assigned);
        p.submit(ids[0], 2, RiskLevel::Behavior).unwrap();
        assert_eq!(p.task(ids[0]).unwrap().state, TaskState::Completed);
    }

    #[test]
    fn majority_vote_and_adjudication() {
        let (p, ids) = platform_with(2);
        for a in 0..3 {
            p.assign(ids[0], a).unwrap();
            p.assign(ids[1], a).unwrap();
        }
        // 2-of-3 majority.
        p.submit(ids[0], 0, RiskLevel::Ideation).unwrap();
        p.submit(ids[0], 1, RiskLevel::Ideation).unwrap();
        p.submit(ids[0], 2, RiskLevel::Behavior).unwrap();
        assert_eq!(
            p.task(ids[0]).unwrap().final_label(),
            Some(RiskLevel::Ideation)
        );
        // Three-way split → no majority → adjudication.
        p.submit(ids[1], 0, RiskLevel::Indicator).unwrap();
        p.submit(ids[1], 1, RiskLevel::Ideation).unwrap();
        p.submit(ids[1], 2, RiskLevel::Behavior).unwrap();
        assert_eq!(p.task(ids[1]).unwrap().final_label(), None);
        p.adjudicate(ids[1], RiskLevel::Ideation).unwrap();
        assert_eq!(p.task(ids[1]).unwrap().state, TaskState::Adjudicated);
        assert_eq!(
            p.task(ids[1]).unwrap().final_label(),
            Some(RiskLevel::Ideation)
        );
    }

    #[test]
    fn flagging_moves_to_supervisor_queue() {
        let (p, ids) = platform_with(1);
        p.assign(ids[0], 1).unwrap();
        assert!(p.flag_uncertain(ids[0], 0).is_err(), "must be assigned");
        p.flag_uncertain(ids[0], 1).unwrap();
        assert_eq!(p.task(ids[0]).unwrap().state, TaskState::Flagged);
        assert_eq!(p.tasks_in_state(TaskState::Flagged), vec![ids[0]]);
        p.adjudicate(ids[0], RiskLevel::Attempt).unwrap();
        assert_eq!(
            p.task(ids[0]).unwrap().final_label(),
            Some(RiskLevel::Attempt)
        );
    }

    #[test]
    fn export_and_post_lookup() {
        let (p, ids) = platform_with(3);
        assert_eq!(p.export().len(), 3);
        assert_eq!(p.task_for_post(PostId(2)), Some(ids[2]));
        assert_eq!(p.task_for_post(PostId(99)), None);
    }

    #[test]
    fn label_studio_export_shape() {
        let (p, ids) = platform_with(2);
        for a in 0..3 {
            p.assign(ids[0], a).unwrap();
        }
        p.submit(ids[0], 0, RiskLevel::Ideation).unwrap();
        p.submit(ids[0], 1, RiskLevel::Ideation).unwrap();
        p.flag_uncertain(ids[0], 2).unwrap();
        p.adjudicate(ids[0], RiskLevel::Ideation).unwrap();
        let json = p.export_label_studio_json().unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        // 2 submissions + 1 adjudication.
        assert_eq!(arr[0]["annotations"].as_array().unwrap().len(), 3);
        assert_eq!(arr[0]["cancelled_annotations"], 1);
        assert_eq!(
            arr[0]["annotations"][0]["result"][0]["value"]["choices"][0],
            "Ideation"
        );
        // Untouched task: empty annotations.
        assert_eq!(arr[1]["annotations"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn concurrent_submissions_are_safe() {
        let (p, ids) = platform_with(300);
        for &id in &ids {
            for a in 0..3 {
                p.assign(id, a).unwrap();
            }
        }
        std::thread::scope(|s| {
            for a in 0..3 {
                let p = p.clone();
                let ids = ids.clone();
                s.spawn(move || {
                    for id in ids {
                        p.submit(id, a, RiskLevel::Ideation).unwrap();
                    }
                });
            }
        });
        assert_eq!(p.tasks_in_state(TaskState::Completed).len(), 300);
    }
}

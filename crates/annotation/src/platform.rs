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

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use rsd_common::{Result, RsdError};
use rsd_corpus::{PostId, RiskLevel};

/// Platform-local task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub(crate) struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum TaskState {
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
pub(crate) struct Submission {
    /// Annotator index within the campaign.
    pub annotator: usize,
    /// The label submitted.
    pub label: RiskLevel,
}

/// A task: one post to label, plus its audit trail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Task {
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

#[derive(Debug, Default)]
struct Inner {
    tasks: Vec<Task>,
}

/// A thread-safe labeling project.
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelingPlatform {
    inner: Arc<Mutex<Inner>>,
}

impl LabelingPlatform {
    /// Empty platform.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Create tasks for the given posts; returns their ids in order.
    pub(crate) fn create_tasks(&self, posts: &[PostId]) -> Vec<TaskId> {
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
            ids.push(id);
        }
        ids
    }

    /// Assign a task to an annotator.
    pub(crate) fn assign(&self, task: TaskId, annotator: usize) -> Result<()> {
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
    pub(crate) fn submit(&self, task: TaskId, annotator: usize, label: RiskLevel) -> Result<()> {
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
    pub(crate) fn flag_uncertain(&self, task: TaskId, annotator: usize) -> Result<()> {
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
    pub(crate) fn adjudicate(&self, task: TaskId, label: RiskLevel) -> Result<()> {
        let mut inner = self.inner.lock();
        let t = get_mut(&mut inner, task)?;
        t.resolution = Some(label);
        t.state = TaskState::Adjudicated;
        Ok(())
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

    fn task(p: &LabelingPlatform, id: TaskId) -> Task {
        p.inner.lock().tasks[id.0 as usize].clone()
    }

    fn platform_with(n: u32) -> (LabelingPlatform, Vec<TaskId>) {
        let p = LabelingPlatform::new();
        let posts: Vec<PostId> = (0..n).map(PostId).collect();
        let ids = p.create_tasks(&posts);
        (p, ids)
    }

    #[test]
    fn lifecycle_pending_assigned_completed() {
        let (p, ids) = platform_with(1);
        assert_eq!(task(&p, ids[0]).state, TaskState::Pending);
        p.assign(ids[0], 0).unwrap();
        assert_eq!(task(&p, ids[0]).state, TaskState::Assigned);
        p.submit(ids[0], 0, RiskLevel::Ideation).unwrap();
        assert_eq!(task(&p, ids[0]).state, TaskState::Completed);
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
        assert_eq!(task(&p, ids[0]).state, TaskState::Assigned);
        p.submit(ids[0], 2, RiskLevel::Behavior).unwrap();
        assert_eq!(task(&p, ids[0]).state, TaskState::Completed);
    }

    #[test]
    fn flagging_moves_to_supervisor_queue() {
        let (p, ids) = platform_with(1);
        p.assign(ids[0], 1).unwrap();
        assert!(p.flag_uncertain(ids[0], 0).is_err(), "must be assigned");
        p.flag_uncertain(ids[0], 1).unwrap();
        assert_eq!(task(&p, ids[0]).state, TaskState::Flagged);
        p.adjudicate(ids[0], RiskLevel::Attempt).unwrap();
        let t = task(&p, ids[0]);
        assert_eq!(t.state, TaskState::Adjudicated);
        assert_eq!(t.resolution, Some(RiskLevel::Attempt));
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
        let completed = p
            .inner
            .lock()
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Completed)
            .count();
        assert_eq!(completed, 300);
    }
}

//! Tasks: named groups of processes.

use std::fmt;

use crate::{ProcessId, TaskId};

/// A task (application): a contiguous block of process ids plus a name.
///
/// In the paper a task like `MxM` is parallelized into 9–37 processes;
/// the processes of a task are identified as `P_{i,j}` where `i` is the
/// task. Here each process receives a globally unique [`ProcessId`]
/// (contiguous within the task), matching the paper's convention that in
/// an EPG "each process has a unique id".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    id: TaskId,
    name: String,
    first: ProcessId,
    count: u32,
}

impl Task {
    /// Creates a task whose processes are numbered `0..count` starting at
    /// process id 0. Use [`Task::with_base`] when composing several tasks
    /// into an EPG.
    pub fn new(id: TaskId, name: impl Into<String>, count: u32) -> Self {
        Task::with_base(id, name, ProcessId::new(0), count)
    }

    /// Creates a task whose processes start at `first`.
    pub fn with_base(id: TaskId, name: impl Into<String>, first: ProcessId, count: u32) -> Self {
        Task {
            id,
            name: name.into(),
            first,
            count,
        }
    }

    /// The task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processes.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether the task has no processes.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The global id of the task's `j`-th process.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    pub fn process(&self, j: u32) -> ProcessId {
        assert!(
            j < self.count,
            "process index {j} out of range ({})",
            self.count
        );
        ProcessId::new(self.first.index() + j)
    }

    /// Iterates over the task's process ids in order.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.count).map(|j| self.process(j))
    }

    /// Whether the given process belongs to this task.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.index() >= self.first.index() && p.index() < self.first.index() + self.count
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}, {} processes)", self.name, self.id, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_ids_are_contiguous() {
        let t = Task::with_base(TaskId::new(1), "radar", ProcessId::new(10), 4);
        assert_eq!(t.process(0), ProcessId::new(10));
        assert_eq!(t.process(3), ProcessId::new(13));
        assert_eq!(t.processes().count(), 4);
        assert!(t.contains(ProcessId::new(12)));
        assert!(!t.contains(ProcessId::new(14)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let t = Task::new(TaskId::new(0), "t", 2);
        let _ = t.process(2);
    }

    #[test]
    fn display() {
        let t = Task::new(TaskId::new(2), "mxm", 17);
        assert_eq!(t.to_string(), "mxm(T2, 17 processes)");
    }
}

//! HPC cluster substrate: nodes, shared filesystems, and a FIFO job
//! scheduler — enough structure to host the paper's Astra container workflow
//! (Figure 6) and the LANL CI pipeline (§5.3.3).

use hpcc_kernel::Sysctl;
use hpcc_vfs::FsBackend;

/// Node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Login / front-end node (where users build images).
    Login,
    /// Compute node (allocated by the resource manager).
    Compute,
}

/// One node of the machine.
#[derive(Debug, Clone)]
pub struct Node {
    /// Host name, e.g. `astra-login1` or `astra-0042`.
    pub name: String,
    /// Role.
    pub kind: NodeKind,
    /// CPU architecture (`x86_64`, `aarch64`, `ppc64le`).
    pub arch: String,
    /// Kernel configuration.
    pub sysctl: Sysctl,
    /// Node-local storage backend (where container storage can live).
    pub local_storage: FsBackend,
}

impl Node {
    /// Creates a login node.
    pub fn login(name: &str, arch: &str, sysctl: Sysctl) -> Self {
        Node {
            name: name.to_string(),
            kind: NodeKind::Login,
            arch: arch.to_string(),
            sysctl,
            local_storage: FsBackend::Tmpfs,
        }
    }

    /// Creates a compute node.
    pub fn compute(name: &str, arch: &str, sysctl: Sysctl) -> Self {
        Node {
            name: name.to_string(),
            kind: NodeKind::Compute,
            arch: arch.to_string(),
            sysctl,
            local_storage: FsBackend::Tmpfs,
        }
    }
}

/// A cluster: nodes plus a site-wide shared filesystem.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Machine name.
    pub name: String,
    /// All nodes.
    pub nodes: Vec<Node>,
    /// The shared parallel filesystem every node mounts (home/project dirs).
    pub shared_fs: FsBackend,
}

impl Cluster {
    /// A model of the Astra supercomputer (paper §4.2): Arm-based (aarch64,
    /// Marvell ThunderX2), RHEL 7.6-era kernels, Lustre shared filesystem.
    pub fn astra(compute_nodes: usize) -> Cluster {
        let sysctl = Sysctl::rhel76();
        let mut nodes = vec![
            Node::login("astra-login1", "aarch64", sysctl.clone()),
            Node::login("astra-login2", "aarch64", sysctl.clone()),
        ];
        for i in 0..compute_nodes {
            nodes.push(Node::compute(
                &format!("astra-{:04}", i + 1),
                "aarch64",
                sysctl.clone(),
            ));
        }
        Cluster {
            name: "Astra".to_string(),
            nodes,
            shared_fs: FsBackend::default_lustre(),
        }
    }

    /// A generic x86-64 commodity cluster with NFS home directories.
    pub fn generic_x86(compute_nodes: usize) -> Cluster {
        let sysctl = Sysctl::modern();
        let mut nodes = vec![Node::login("cluster-login1", "x86_64", sysctl.clone())];
        for i in 0..compute_nodes {
            nodes.push(Node::compute(
                &format!("cn{:04}", i + 1),
                "x86_64",
                sysctl.clone(),
            ));
        }
        Cluster {
            name: "generic".to_string(),
            nodes,
            shared_fs: FsBackend::default_nfs(),
        }
    }

    /// The login nodes.
    pub fn login_nodes(&self) -> Vec<&Node> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Login)
            .collect()
    }

    /// The compute nodes.
    pub fn compute_nodes(&self) -> Vec<&Node> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Compute)
            .collect()
    }

    /// Looks up a node by name.
    pub fn node(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }
}

/// Job state in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for nodes.
    Pending,
    /// Allocated and running.
    Running,
    /// Finished successfully.
    Completed,
    /// Failed.
    Failed,
    /// Cancelled before running.
    Cancelled,
}

/// A batch job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job id.
    pub id: u64,
    /// Name (e.g. `container-build`, `atse-validate`).
    pub name: String,
    /// Nodes requested.
    pub nodes_requested: usize,
    /// Nodes allocated (names).
    pub allocation: Vec<String>,
    /// Current state.
    pub state: JobState,
}

/// A simple FIFO scheduler over a cluster's compute nodes.
#[derive(Debug, Clone)]
pub struct Scheduler {
    free_nodes: Vec<String>,
    jobs: Vec<Job>,
    next_id: u64,
}

impl Scheduler {
    /// Creates a scheduler managing the cluster's compute nodes.
    pub fn new(cluster: &Cluster) -> Self {
        Scheduler {
            free_nodes: cluster
                .compute_nodes()
                .iter()
                .map(|n| n.name.clone())
                .collect(),
            jobs: Vec::new(),
            next_id: 1,
        }
    }

    /// Submits a job; it is allocated immediately if enough nodes are free.
    pub fn submit(&mut self, name: &str, nodes: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let mut job = Job {
            id,
            name: name.to_string(),
            nodes_requested: nodes,
            allocation: Vec::new(),
            state: JobState::Pending,
        };
        if self.free_nodes.len() >= nodes {
            job.allocation = self.free_nodes.drain(..nodes).collect();
            job.state = JobState::Running;
        }
        self.jobs.push(job);
        id
    }

    /// Marks a job finished and returns its nodes to the free pool.
    pub fn complete(&mut self, id: u64, success: bool) {
        // Collect freed nodes first to avoid double borrow.
        let mut freed = Vec::new();
        if let Some(job) = self.jobs.iter_mut().find(|j| j.id == id) {
            if job.state == JobState::Running {
                freed.append(&mut job.allocation.clone());
                job.state = if success {
                    JobState::Completed
                } else {
                    JobState::Failed
                };
            } else if job.state == JobState::Pending {
                job.state = JobState::Cancelled;
            }
        }
        self.free_nodes.extend(freed);
        self.schedule_pending();
    }

    fn schedule_pending(&mut self) {
        for job in self.jobs.iter_mut() {
            if job.state == JobState::Pending && self.free_nodes.len() >= job.nodes_requested {
                job.allocation = self.free_nodes.drain(..job.nodes_requested).collect();
                job.state = JobState::Running;
            }
        }
    }

    /// Looks up a job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn astra_is_aarch64_with_lustre() {
        let astra = Cluster::astra(8);
        assert_eq!(astra.login_nodes().len(), 2);
        assert_eq!(astra.compute_nodes().len(), 8);
        assert!(astra.nodes.iter().all(|n| n.arch == "aarch64"));
        assert!(!astra.shared_fs.supports_user_xattrs());
        assert!(astra.node("astra-login1").is_some());
    }

    #[test]
    fn generic_cluster_is_x86() {
        let c = Cluster::generic_x86(4);
        assert_eq!(c.compute_nodes().len(), 4);
        assert!(c.nodes.iter().all(|n| n.arch == "x86_64"));
    }

    #[test]
    fn scheduler_allocates_fifo() {
        let cluster = Cluster::astra(4);
        let mut sched = Scheduler::new(&cluster);
        let a = sched.submit("build", 1);
        let b = sched.submit("validate", 2);
        let c = sched.submit("big-run", 4);
        assert_eq!(sched.job(a).unwrap().state, JobState::Running);
        assert_eq!(sched.job(b).unwrap().state, JobState::Running);
        assert_eq!(sched.job(c).unwrap().state, JobState::Pending);
        assert_eq!(sched.free_nodes.len(), 1);
        sched.complete(a, true);
        sched.complete(b, true);
        assert_eq!(sched.job(c).unwrap().state, JobState::Running);
        sched.complete(c, false);
        assert_eq!(sched.job(c).unwrap().state, JobState::Failed);
        assert_eq!(sched.free_nodes.len(), 4);
    }

    #[test]
    fn jobs_get_distinct_nodes() {
        let cluster = Cluster::astra(4);
        let mut sched = Scheduler::new(&cluster);
        let a = sched.submit("a", 2);
        let b = sched.submit("b", 2);
        let mut all: Vec<String> = sched.job(a).unwrap().allocation.clone();
        all.extend(sched.job(b).unwrap().allocation.clone());
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4);
    }
}
